package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: series name with its label set,
// exactly as printed, to value.
type scrape map[string]float64

func fetchMetrics(httpAddr string) (scrape, error) {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: %s/metrics: %s", httpAddr, resp.Status)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns a − b series by series; a series absent from b counts
// from zero, which is what a freshly started process reports.
func (a scrape) sub(b scrape) scrape {
	out := make(scrape, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// add accumulates b into a, for deltas summed over origin
// incarnations.
func (a scrape) add(b scrape) {
	for k, v := range b {
		a[k] += v
	}
}

// sumPrefix adds every series whose name starts with prefix, e.g. all
// verdict labels of placeless_reads_total.
func (a scrape) sumPrefix(prefix string) float64 {
	var t float64
	for k, v := range a {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

func stageSeries(kind, stage string) string {
	return fmt.Sprintf(`placeless_read_stage_duration_seconds_%s{stage=%q}`, kind, stage)
}

// originStatus is the part of placelessd's /status the benchmark reads.
type originStatus struct {
	Cache struct {
		BytesStored int64
	} `json:"cache"`
	Store struct {
		BlobBytes int64
		Segments  int
		Entries   int
	} `json:"store"`
	Recovery struct {
		Entries int
	} `json:"recovery"`
}

// sidecarStatus is the part of plcached's /status the benchmark reads:
// per-node entries in cluster mode, the reconnect counters in single
// mode.
type sidecarStatus struct {
	Nodes []struct {
		Entries int `json:"entries"`
	} `json:"nodes"`
}

func fetchStatus(httpAddr string, into interface{}) error {
	resp, err := http.Get("http://" + httpAddr + "/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: %s/status: %s", httpAddr, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
