package experiment

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

// ResilienceConfig parameterizes the connection-resilience experiment
// (E14): a remote cache rides through a server crash/restart under
// each degraded-mode policy, and call deadlines are measured against a
// wedged server. This experiment runs real TCP on the real clock (the
// E11 idiom), so latencies are machine-dependent; compare the counters
// and the deadline-vs-observed ratio, not absolute times.
type ResilienceConfig struct {
	// Docs is the cached working set that rides through the outage.
	Docs int
	// CallTimeout bounds every client call in the crash phases.
	CallTimeout time.Duration
	// BackoffBase and BackoffMax shape the reconnect schedule.
	BackoffBase, BackoffMax time.Duration
	// StaleTTL bounds the serve-stale phase's staleness window; the
	// outage is far shorter, so within-bound hits are expected.
	StaleTTL time.Duration
	// WedgedCalls is how many one-shot calls to aim at a wedged
	// (accepts, never answers) server for the deadline distribution.
	WedgedCalls int
	// WedgedTimeout is the call deadline used for those calls.
	WedgedTimeout time.Duration
	// Seed fixes document contents.
	Seed int64
}

// DefaultResilienceConfig returns the configuration used by plbench.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Docs:          16,
		CallTimeout:   2 * time.Second,
		BackoffBase:   5 * time.Millisecond,
		BackoffMax:    100 * time.Millisecond,
		StaleTTL:      time.Minute,
		WedgedCalls:   20,
		WedgedTimeout: 50 * time.Millisecond,
		Seed:          1,
	}
}

// ResiliencePhase is one policy's trip through the crash/restart
// cycle.
type ResiliencePhase struct {
	// Policy is the degraded-mode policy under test.
	Policy string
	// Reconnects and EpochFlushes are the cache's recovery counters
	// after the restart.
	Reconnects, EpochFlushes int64
	// DegradedErrors counts reads refused while the server was down.
	DegradedErrors int64
	// StaleServed counts hits served during the outage (serve-stale
	// only; fail-fast must report 0).
	StaleServed int64
	// StaleAfterReconnect counts post-reconnect reads that returned
	// content invalidated during the outage — the correctness
	// acceptance criterion; must be 0.
	StaleAfterReconnect int64
	// PostReconnectReads is how many reads verified fresh content
	// after the restart.
	PostReconnectReads int64
}

// ResilienceResult is experiment E14's output.
type ResilienceResult struct {
	Config ResilienceConfig
	// Phases holds one crash/restart cycle per degraded-mode policy.
	Phases []ResiliencePhase
	// WedgedP50 and WedgedP99 are the observed latencies of calls
	// against a server that accepts requests and never answers; with
	// deadlines enforced they sit just above Config.WedgedTimeout
	// instead of hanging forever.
	WedgedP50, WedgedP99 time.Duration
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r ResilienceResult) TableData() ([]string, [][]string) {
	header := []string{"measurement", "fail-fast", "serve-stale"}
	cell := func(f func(ResiliencePhase) string) []string {
		row := make([]string, 0, 2)
		for _, p := range r.Phases {
			row = append(row, f(p))
		}
		for len(row) < 2 {
			row = append(row, "-")
		}
		return row
	}
	num := func(f func(ResiliencePhase) int64) []string {
		return cell(func(p ResiliencePhase) string { return fmt.Sprintf("%d", f(p)) })
	}
	rows := [][]string{
		append([]string{"reconnects"}, num(func(p ResiliencePhase) int64 { return p.Reconnects })...),
		append([]string{"epoch flushes"}, num(func(p ResiliencePhase) int64 { return p.EpochFlushes })...),
		append([]string{"degraded errors (outage)"}, num(func(p ResiliencePhase) int64 { return p.DegradedErrors })...),
		append([]string{"stale served (outage)"}, num(func(p ResiliencePhase) int64 { return p.StaleServed })...),
		append([]string{"stale after reconnect"}, num(func(p ResiliencePhase) int64 { return p.StaleAfterReconnect })...),
		append([]string{"fresh post-reconnect reads"}, num(func(p ResiliencePhase) int64 { return p.PostReconnectReads })...),
		{"wedged-call p50 (deadline enforced)", r.WedgedP50.String(), ""},
		{"wedged-call p99 (deadline enforced)", r.WedgedP99.String(), ""},
	}
	return header, rows
}

// resilienceServer is a killable, restartable server over a space that
// survives the crash (durable state), mirroring the chaos test rigs.
type resilienceServer struct {
	space   *docspace.Space
	backing repo.Repository
	addr    string
	srv     *server.Server
	done    chan error
}

func startResilienceServer(seed int64) (*resilienceServer, error) {
	clk := clock.Real{}
	rs := &resilienceServer{
		space:   docspace.New(clk, nil),
		backing: repo.NewMem("srv", clk, simnet.NewPath("free", seed)),
	}
	srv := server.New(rs.space, rs.backing)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	for i := 0; i < 500; i++ {
		if a := srv.Addr(); a != nil {
			rs.addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rs.addr == "" {
		return nil, errors.New("resilience: server did not start")
	}
	rs.srv, rs.done = srv, done
	return rs, nil
}

func (rs *resilienceServer) kill() {
	if rs.srv == nil {
		return
	}
	rs.srv.Close()
	<-rs.done
	rs.srv = nil
}

func (rs *resilienceServer) restart() error {
	rs.kill()
	var ln net.Listener
	var err error
	for i := 0; i < 500; i++ {
		if ln, err = net.Listen("tcp", rs.addr); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("resilience: relisten on %s: %w", rs.addr, err)
	}
	srv := server.New(rs.space, rs.backing)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	rs.srv, rs.done = srv, done
	return nil
}

// waitUntil polls cond for up to d.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// runResiliencePhase runs one crash/restart cycle under policy.
func runResiliencePhase(cfg ResilienceConfig, policy remote.DegradedPolicy) (ResiliencePhase, error) {
	phase := ResiliencePhase{Policy: policy.String()}
	rs, err := startResilienceServer(cfg.Seed)
	if err != nil {
		return phase, err
	}
	defer rs.kill()
	client, err := server.Dial(rs.addr,
		server.WithCallTimeout(cfg.CallTimeout),
		server.WithReconnect(cfg.BackoffBase, cfg.BackoffMax))
	if err != nil {
		return phase, err
	}
	defer client.Close()
	cache := remote.New(client, remote.Options{
		DegradedPolicy: policy,
		StaleTTL:       cfg.StaleTTL,
	})

	docID := func(i int) string { return fmt.Sprintf("doc-%03d", i) }
	for i := 0; i < cfg.Docs; i++ {
		if err := client.CreateDocument(docID(i), "u", Content(docID(i)+" v1", 2048)); err != nil {
			return phase, err
		}
		if _, err := cache.Read(docID(i), "u"); err != nil {
			return phase, err
		}
	}

	// Crash. Every doc changes while the server is down; the
	// invalidations are lost with the server-side notifiers.
	rs.kill()
	if !waitUntil(10*time.Second, func() bool { return client.State() == server.StateDisconnected }) {
		return phase, errors.New("resilience: client never noticed the crash")
	}
	for i := 0; i < cfg.Docs; i++ {
		if err := rs.space.WriteDocument(docID(i), "u", Content(docID(i)+" v2", 2048)); err != nil {
			return phase, err
		}
	}
	// Degraded-mode reads over the whole set: fail-fast refuses them
	// all, serve-stale serves the (within-bound) cached copies.
	for i := 0; i < cfg.Docs; i++ {
		if _, err := cache.Read(docID(i), "u"); err != nil && !errors.Is(err, remote.ErrDegraded) {
			return phase, fmt.Errorf("resilience: outage read failed untyped: %w", err)
		}
	}

	// Restart; the client backs off and redials, the cache flushes the
	// old epoch and replays its subscriptions.
	if err := rs.restart(); err != nil {
		return phase, err
	}
	if !waitUntil(10*time.Second, func() bool { return cache.Stats().Reconnects >= 1 }) {
		return phase, errors.New("resilience: cache never observed the reconnect")
	}
	for i := 0; i < cfg.Docs; i++ {
		got, err := cache.Read(docID(i), "u")
		if err != nil {
			return phase, fmt.Errorf("resilience: post-reconnect read: %w", err)
		}
		phase.PostReconnectReads++
		if string(got) != string(Content(docID(i)+" v2", 2048)) {
			phase.StaleAfterReconnect++
		}
	}
	st := cache.Stats()
	phase.Reconnects = st.Reconnects
	phase.EpochFlushes = st.EpochFlushes
	phase.DegradedErrors = st.DegradedErrors
	phase.StaleServed = st.StaleServed
	return phase, nil
}

// measureWedgedCalls aims one-shot calls at a server that completes
// the handshake and accepts every request but never answers (a
// universal property blocks inside the read path), and returns the
// observed latency distribution. Without a call deadline these would
// hang forever; with one they cluster just above the deadline.
func measureWedgedCalls(cfg ResilienceConfig) (p50, p99 time.Duration, err error) {
	rs, err := startResilienceServer(cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	defer rs.kill()
	release := make(chan struct{})
	defer close(release) // runs before kill, so no blocked handler outlives the run
	if err := rs.backing.Store("/d", []byte("wedged")); err != nil {
		return 0, 0, err
	}
	if _, err := rs.space.CreateDocument("d", "u", &property.RepoBitProvider{Repo: rs.backing, Path: "/d"}); err != nil {
		return 0, 0, err
	}
	wedge := &property.Transformer{
		Base:          property.Base{PropName: "wedge"},
		ReadTransform: func(b []byte) []byte { <-release; return b },
	}
	if err := rs.space.Attach("d", "", docspace.Universal, wedge); err != nil {
		return 0, 0, err
	}

	lat := make([]time.Duration, 0, cfg.WedgedCalls)
	for i := 0; i < cfg.WedgedCalls; i++ {
		client, err := server.Dial(rs.addr, server.WithCallTimeout(cfg.WedgedTimeout))
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		_, _, rerr := client.Read("d", "u")
		elapsed := time.Since(start)
		client.Close()
		if !errors.Is(rerr, server.ErrTimeout) {
			return 0, 0, fmt.Errorf("resilience: wedged call returned %v, want ErrTimeout", rerr)
		}
		lat = append(lat, elapsed)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	quantile := func(q float64) time.Duration {
		idx := int(q * float64(len(lat)-1))
		return lat[idx]
	}
	return quantile(0.50), quantile(0.99), nil
}

// RunResilience measures E14: one crash/restart cycle per degraded-mode
// policy, plus the wedged-server deadline distribution.
func RunResilience(cfg ResilienceConfig) (ResilienceResult, error) {
	res := ResilienceResult{Config: cfg}
	for _, policy := range []remote.DegradedPolicy{remote.FailFast, remote.ServeStale} {
		phase, err := runResiliencePhase(cfg, policy)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, phase)
	}
	var err error
	res.WedgedP50, res.WedgedP99, err = measureWedgedCalls(cfg)
	if err != nil {
		return res, err
	}
	return res, nil
}
