package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"placeless/internal/swarm"
	"placeless/internal/trace"
)

// tracedShare is the prefix of the stream the traced run replays live.
// It leaves the rest of the run's time to the in-process rungs.
const tracedShare = 0.4

// rungReads and rungBudget bound each in-process pass.
const (
	rungReads  = 4000
	rungBudget = 600 * time.Millisecond
)

// restart_recover runs restartCyclesPer10s kill/restart cycles for
// every ten seconds asked for (a cycle takes about 1.2 s on the
// sandbox) and never fewer than minRestartCycles.
const (
	restartCyclesPer10s = 8
	minRestartCycles    = 3
)

type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool
	// scale shrinks the op counts; the smoke test runs at 1/50. The
	// assertions on what a workload exercises hold at scale 1 only.
	scale float64
	// setups is how many times an untraced run sets the deployment up;
	// setup_s is the median and the timed phase runs on the last one. A
	// traced run does not report setup_s and sets up once.
	setups int
	outDir string
	// isolate gives every process its CPUs and keeps them awake (see
	// affinity.go and spin.go). The smoke test runs without, inside the
	// test binary.
	isolate bool
	// root and binDir come from prepare.
	root, binDir string
}

// prepare finds the checkout and builds the daemons, once per process.
func (cfg *runConfig) prepare() (err error) {
	if cfg.root, err = findRoot(); err != nil {
		return err
	}
	cfg.binDir, err = buildDaemons(cfg.root)
	return err
}

// result is one run: every metric it could measure, by name.
type result struct {
	workload  string
	streamSHA string
	attempted int64
	failed    int64
	timedS    float64  // wall time of the timed phase
	problems  []string // reconciliation and workload-shape failures
	metrics   map[string]float64
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) problemf(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// snapshot is every counter the benchmark reads from outside, at one
// instant.
type snapshot struct {
	sidecarProc, originProc procSample
	sidecar, origin         scrape // origin summed over incarnations
	selfCPU                 float64
	stale                   int64
	at                      time.Time
}

func (e *env) snapshot() (s snapshot, err error) {
	if s.sidecarProc, err = sampleProc(e.sidecar.pid()); err != nil {
		return s, err
	}
	if s.sidecar, err = fetchMetrics(e.sidecarHTTP); err != nil {
		return s, err
	}
	if s.originProc, s.origin, err = e.originTotals(); err != nil {
		return s, err
	}
	s.selfCPU, s.at = selfCPUms(), time.Now()
	for _, wk := range e.workers {
		s.stale += wk.chk.stale
	}
	return s, nil
}

func runWorkload(cfg runConfig) (res *result, err error) {
	w := cfg.w
	ops := w.stream(cfg.seed, cfg.seconds, cfg.scale)
	res = &result{workload: w.name, streamSHA: streamSHA(ops), metrics: make(map[string]float64)}
	if cfg.traced {
		ops = ops[:int(math.Max(slices, float64(len(ops))*tracedShare))]
	}
	pairs := distinctPairs(ops)

	workDir, err := scratchDir(filepath.Join(cfg.root, buildDirName), "run-")
	if err != nil {
		return nil, err
	}
	defer dropScratch(workDir)
	var place placement
	if cfg.isolate {
		place = placeByHalves(runtime.NumCPU())
		if err := pinSelf(place.generator); err != nil {
			return nil, err
		}
		defer stopSpinners(startSpinners(place.generator))
	}

	setups := cfg.setups
	if cfg.traced {
		setups = 1
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = newEnv(w, cfg.binDir, workDir, place, pairs, min(runtime.NumCPU(), 2)); err != nil {
			return nil, err
		}
		if err = e.setUp(); err != nil {
			err = fmt.Errorf("%w\n%s", err, e.logs())
			e.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	defer func() {
		if err != nil || !res.correct() {
			fmt.Fprint(os.Stderr, e.logs())
		}
	}()
	res.metrics["setup_s"] = median(setupS)
	if cfg.traced {
		e.tracer = newTracer()
	}

	entriesBefore := 0
	if w.restart {
		if entriesBefore, err = e.awaitDemotions(); err != nil {
			return nil, err
		}
		// The benchmark's own wire client would only report the kills.
		e.ctl.Close()
		e.ctl = nil
	}

	before, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	var ph *phase
	if w.restart {
		cycles := float64(restartCyclesPer10s*cfg.seconds) / 10 * cfg.scale
		if cfg.traced {
			cycles *= tracedShare
		}
		if cycles < minRestartCycles {
			cycles = minRestartCycles
		}
		ph, err = e.restartPhase(int(cycles), entriesBefore)
	} else {
		ph, err = e.streamPhase(ops, cfg.traced)
	}
	if err != nil {
		return nil, err
	}
	after, err := e.snapshot()
	if err != nil {
		return nil, err
	}

	res.attempted, res.failed = ph.total.ops(), ph.total.failed
	res.timedS = after.at.Sub(before.at).Seconds()
	if ph.total.firstErr != nil {
		res.problemf("first failed op: %v", ph.total.firstErr)
	}
	if err := e.ledger(res, ph, before, after); err != nil {
		return nil, err
	}
	e.reconcile(res, ph, before, after)
	if cfg.scale == 1 {
		e.assertShape(res)
	}

	if cfg.traced {
		hit, err := e.liveHitP50()
		if err != nil {
			return nil, err
		}
		reads := readsOf(ops, rungReads)
		rt, err := runRungs(w, reads, workDir, e.tracer, time.Duration(float64(rungBudget)*math.Min(1, cfg.scale*10)))
		if err != nil {
			return nil, err
		}
		rungMetrics(res, w, rt, hit)
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := e.tracer.writeJSONL(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// readsOf returns the first n reads of ops.
func readsOf(ops []swarm.Op, n int) []swarm.Op {
	var out []swarm.Op
	for _, op := range ops {
		if op.Kind == trace.OpRead && len(out) < n {
			out = append(out, op)
		}
	}
	return out
}

// phase is a timed phase cut into slices.
type phase struct {
	slices []*sliceResult
	traced []bool
	total  sliceResult
	// restart_recover only.
	recoveryS     []float64
	recoveredFrac []float64
	refused       int64
}

func (p *phase) add(r *sliceResult, traced bool) {
	p.slices = append(p.slices, r)
	p.traced = append(p.traced, traced)
	p.total.wall += r.wall
	p.total.merge(r)
}

// streamPhase runs ops in equal slices with a barrier between them. In
// a traced run every other slice records spans, so the two halves of
// bench.trace_overhead_frac come from the same deployment and minute.
func (e *env) streamPhase(ops []swarm.Op, traced bool) (*phase, error) {
	ph := &phase{}
	for i := 0; i < slices; i++ {
		lo, hi := i*len(ops)/slices, (i+1)*len(ops)/slices
		tr := traced && i%2 == 1
		ph.add(e.runSlice(ops[lo:hi], lo, tr), tr)
	}
	return ph, nil
}

// restartPhase kills the origin, restarts it on the same directories
// and reads every key once, cycles times. A cycle is one slice.
func (e *env) restartPhase(cycles, entriesBefore int) (*phase, error) {
	ph := &phase{}
	rest := make([]swarm.Op, 0, len(e.pairs))
	for _, p := range e.pairs[1:] {
		rest = append(rest, swarm.Op{Doc: p.doc, User: p.user})
	}
	first := e.workers[e.pairs[0].doc%len(e.workers)]
	for c := 0; c < cycles; c++ {
		if err := e.killOrigin(); err != nil {
			return nil, err
		}
		killed := time.Now()
		if err := e.startOrigin(); err != nil {
			return nil, err
		}
		refused, err := first.readUntilGood(e.pairs[0])
		ph.recoveryS = append(ph.recoveryS, time.Since(killed).Seconds())
		ph.refused += refused
		if err != nil {
			e.origin.stacks()
			e.sidecar.stacks()
			return nil, err
		}
		r := e.runSlice(rest, 1, false)
		r.reads++ // the read that ended the outage
		ph.add(r, false)

		var st originStatus
		if err := fetchStatus(e.originHTTP, &st); err != nil {
			return nil, err
		}
		ph.recoveredFrac = append(ph.recoveredFrac, float64(st.Recovery.Entries)/float64(entriesBefore))
	}
	return ph, nil
}

// liveHitP50 reads one warm key through the sidecar until it has a
// steady median: the live HTTP hit latency at the workload's size.
func (e *env) liveHitP50() (float64, error) {
	wk, p := e.workers[0], e.pairs[0]
	doc, user := swarm.DocID(p.doc), swarm.UserName(p.user)
	var lat []time.Duration
	for i := 0; i < 400; i++ {
		t0 := time.Now()
		d, status, err := wk.get(doc, user)
		if err != nil || status != 200 {
			return 0, fmt.Errorf("bench: hit probe %s/%s: status %d: %v", doc, user, status, err)
		}
		e.tracer.root("live", "http.get.hit", i, t0, d)
		if i > 0 { // the first read may be the miss that warms the key
			lat = append(lat, d)
		}
	}
	return p50us(lat), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileMS is the q-quantile of sorted latencies in milliseconds.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}
