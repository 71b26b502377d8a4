package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"placeless/internal/obs"
)

// httpClient bounds every observability request: an operator CLI must
// not hang on a wedged daemon.
var httpClient = &http.Client{Timeout: 10 * time.Second}

// httpGet fetches http://addr+path and returns the body of a 200
// response; any other status is an error naming it.
func httpGet(addr, path string) (io.ReadCloser, error) {
	url := "http://" + addr + path
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

// httpStats renders /metrics one sample per line, dropping comment
// lines and per-bucket histogram samples (the _sum/_count pair stays).
func httpStats(addr string, stdout io.Writer) error {
	body, err := httpGet(addr, "/metrics")
	if err != nil {
		return err
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		if _, err := fmt.Fprintln(stdout, line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// httpTrace renders the last n records of /debug/traces, newest
// first: completion time, verdict, miss cause ("-" on hits), doc/user,
// end-to-end latency, then every stage that actually ran.
func httpTrace(addr string, n int, stdout io.Writer) error {
	body, err := httpGet(addr, fmt.Sprintf("/debug/traces?n=%d", n))
	if err != nil {
		return err
	}
	defer body.Close()
	var dump obs.TraceDump
	if err := json.NewDecoder(body).Decode(&dump); err != nil {
		return fmt.Errorf("decode /debug/traces: %w", err)
	}
	fmt.Fprintf(stdout, "%d traces recorded; showing %d\n", dump.Total, len(dump.Traces))
	for _, t := range dump.Traces {
		cause := t.Cause
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(stdout, "%s  %-9s %-10s %s/%s  total=%v", t.Time.Format("15:04:05.000"), t.Verdict, cause, t.Doc, t.User, t.Total)
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{obs.StageShardLookup, t.Lookup},
			{obs.StageFlightWait, t.FlightWait},
			{obs.StageVerify, t.Verify},
			{obs.StageDiskPromote, t.DiskPromote},
			{obs.StageBitFetch, t.BitFetch},
			{obs.StageUniversal, t.Universal},
			{obs.StagePersonal, t.Personal},
			{obs.StageRemoteRTT, t.Remote},
		} {
			if st.d > 0 {
				fmt.Fprintf(stdout, " %s=%v", st.name, st.d)
			}
		}
		if t.PrefixCuts > 0 {
			fmt.Fprintf(stdout, " prefix=%d/%d", t.PrefixDepth+1, t.PrefixCuts)
		}
		if t.Err != "" {
			fmt.Fprintf(stdout, " err=%q", t.Err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
