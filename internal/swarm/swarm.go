package swarm

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"placeless/internal/clock"
	"placeless/internal/cluster"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
	"placeless/internal/trace"
)

// Backend selects what the swarm drives.
type Backend int

const (
	// Single drives one in-process core cache.
	Single Backend = iota
	// Cluster drives the consistent-hash router over Nodes in-process
	// core caches sharing one document space — placement, failover,
	// and per-node caching are the production router's; invalidation is
	// the space's synchronous event dispatch, which keeps frontier
	// counts deterministic under the worker pool.
	Cluster
)

// String names the backend.
func (b Backend) String() string {
	if b == Cluster {
		return "cluster"
	}
	return "single"
}

// RunConfig parameterizes one swarm phase.
type RunConfig struct {
	// Gen shapes the op stream (see Config).
	Gen Config
	// Phase labels the frontier row.
	Phase string
	// Backend selects single-cache or cluster-routed execution.
	Backend Backend
	// Nodes and Replicas shape the Cluster backend's ring.
	Nodes, Replicas int
	// Workers bounds the pool multiplexing user identities (default 4).
	Workers int
	// MinDocSize floors the heavy-tailed document size draw.
	MinDocSize int64
}

// Frontier is one phase's latency/staleness/recompute-cost row. Every
// count is exact — copied or summed from core.Stats and the harness's
// own tallies, which the accounting test pins — and deterministic for
// a given seed. The latency and elapsed fields are wall-clock and
// excluded from the determinism contract.
type Frontier struct {
	Phase   string
	Backend string
	// Population and pool shape.
	Users, Docs, Workers, Nodes int
	// Op mix actually executed.
	Ops, Reads, Writes, Attaches, Detaches, Reorders, ChurnNoops int64
	// DistinctPairs is how many (doc, user) keys the stream touched —
	// the working-set size the virtualized population produced.
	DistinctPairs int64
	// Cache outcome mix (sums over nodes): Hits served from cache,
	// IntermediateHits misses resumed from the memoized universal
	// stage, PrefixHits misses resumed from a longest-shared-prefix
	// cut, Misses full or partial read-path executions, Coalesced
	// single-flight joins, Invalidations entries dropped by the
	// notifier stream.
	Hits, IntermediateHits, PrefixHits, Misses, Coalesced, Invalidations int64
	// Recompute-cost cells: universal-chain executions, prefix-segment
	// executions, and the derived SegmentRunsSaved = IntermediateHits +
	// PrefixHits. Each term is a cut serving; one resumed miss can
	// contribute to both when its cut lies past the universal boundary
	// (the universal stage was served from memo AND a deeper prefix cut
	// was found). BytesRecomputedSaved is core's byte-weighted version.
	UniversalStageRuns, PrefixSegmentRuns, PrefixInstalls int64
	SegmentRunsSaved, BytesRecomputedSaved                int64
	// Staleness vs the write stream: a read is stale when the version
	// it returned is older than the last version written at the moment
	// the read started. MaxVersionLag is the worst such gap in
	// versions. Writes go through, so both read 0 on a correct cache.
	StaleReads, MaxVersionLag int64
	// Router counters (Cluster backend only).
	RouterReads, RouterWrites, Failovers int64
	// Wall-clock latency percentiles over reads, and total elapsed
	// time. Machine-dependent: excluded from determinism.
	P50Micros, P99Micros, ElapsedMS float64
	// NodeStats are the raw per-node cache counters the cells above
	// were derived from, for machine consumers and the accounting test.
	NodeStats []core.Stats
}

// HitRate is Hits over executed reads.
func (f Frontier) HitRate() float64 {
	if f.Reads == 0 {
		return 0
	}
	return float64(f.Hits) / float64(f.Reads)
}

// maxPersonal bounds each (doc, user) personal chain under churn.
const maxPersonal = 3

// catalogSize is the number of distinct personal tagger properties;
// users whose first attach drew the same tag share a chain prefix,
// which is what makes PrefixHits a live cell.
const catalogSize = 4

// personalTagger builds catalog property k: a memoizable pure
// suffix-appending transform. Appending keeps the version stamp at the
// front of the content parseable after any chain.
func personalTagger(k int) *property.Transformer {
	tag := []byte(fmt.Sprintf("|p%d", k))
	return &property.Transformer{
		Base:          property.Base{PropName: fmt.Sprintf("p%d", k)},
		ReadTransform: func(b []byte) []byte { return append(append([]byte{}, b...), tag...) },
		Version:       1,
		MemoID:        fmt.Sprintf("swarm-p%d", k),
	}
}

// universalTagger builds universal transform k, same shape.
func universalTagger(k int) *property.Transformer {
	tag := []byte(fmt.Sprintf("|U%d", k))
	return &property.Transformer{
		Base:          property.Base{PropName: fmt.Sprintf("U%d", k)},
		ReadTransform: func(b []byte) []byte { return append(append([]byte{}, b...), tag...) },
		Version:       1,
		MemoID:        fmt.Sprintf("swarm-U%d", k),
	}
}

// stampContent renders document content carrying its write version as
// a parseable prefix: "v%08d|<doc>|<filler to size>". All swarm
// transforms append, so the prefix survives any chain and a read can
// always recover which version it observed.
func stampContent(doc string, version int64, size int64) []byte {
	head := fmt.Sprintf("v%08d|%s|", version, doc)
	if int64(len(head)) >= size {
		return []byte(head)
	}
	out := make([]byte, size)
	copy(out, head)
	const filler = "swarm filler content for active property caching. "
	for i := len(head); i < len(out); i++ {
		out[i] = filler[(i-len(head))%len(filler)]
	}
	return out
}

// parseVersion recovers the write version from returned content.
func parseVersion(data []byte) (int64, bool) {
	if len(data) < 9 || data[0] != 'v' {
		return 0, false
	}
	var v int64
	for _, c := range data[1:9] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// backendPeer is what a worker drives: core.Cache (Single) and
// cluster.Cache (Cluster) both satisfy it.
type backendPeer interface {
	Read(doc, user string) ([]byte, error)
	Write(doc, user string, data []byte) error
}

// world is one phase's built deployment.
type world struct {
	space  *docspace.Space
	caches []*core.Cache
	router *cluster.Cache
	be     backendPeer
	owner  string
	docIDs []string
}

// ownerName is the writer identity; every document is created owned by
// it, so writes need no reference bookkeeping.
const ownerName = "swarm-owner"

// buildWorld assembles the space, documents, universal chains, and the
// backend caches for one phase.
func buildWorld(cfg RunConfig) (*world, error) {
	gen := cfg.Gen.Norm()
	clk := clock.Real{}
	src := repo.NewMem("swarm", clk, simnet.NewPath("free", gen.Seed))
	space := docspace.New(clk, nil)

	w := &world{space: space, owner: ownerName}
	sizes := trace.SizesWith(rand.New(rand.NewSource(gen.Seed+1)), gen.Docs, max64(cfg.MinDocSize, 128))
	w.docIDs = make([]string, gen.Docs)
	for d := 0; d < gen.Docs; d++ {
		id := DocID(d)
		w.docIDs[d] = id
		if err := src.Store("/"+id, stampContent(id, 0, sizes[id])); err != nil {
			return nil, err
		}
		if _, err := space.CreateDocument(id, ownerName, &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
			return nil, err
		}
		// Two memoizable universal transforms: the shared stage whose
		// reuse the memo cells measure.
		for k := 0; k < 2; k++ {
			if err := space.Attach(id, "", docspace.Universal, universalTagger(k)); err != nil {
				return nil, err
			}
		}
	}

	opts := core.Options{Memoize: true}
	switch cfg.Backend {
	case Cluster:
		nodes := cfg.Nodes
		if nodes <= 0 {
			nodes = 3
		}
		replicas := cfg.Replicas
		if replicas <= 0 {
			replicas = 2
		}
		w.router = cluster.New(cluster.Options{Replicas: replicas, VNodes: 64})
		for i := 0; i < nodes; i++ {
			o := opts
			o.Name = fmt.Sprintf("swarm-n%d", i)
			c := core.New(space, o)
			w.caches = append(w.caches, c)
			if err := w.router.AddNode(o.Name, c); err != nil {
				return nil, err
			}
		}
		w.be = w.router
	default:
		opts.Name = "swarm"
		c := core.New(space, opts)
		w.caches = []*core.Cache{c}
		w.be = c
	}
	return w, nil
}

func (w *world) close() {
	for _, c := range w.caches {
		c.Close()
	}
}

// tally is one worker's private accounting, merged after the pool
// drains.
type tally struct {
	reads, writes, attaches, detaches, reorders, churnNoops int64
	pairs                                                   int64
	stale, maxLag                                           int64
	latencies                                               []time.Duration
}

// pairState tracks one touched (doc, user) key: reference added,
// current personal chain (property catalog ids in order).
type pairState struct {
	chain []int
}

// worker executes its partition of the op stream in order. Partition
// is by document, so per-key sequencing, single-flight, and chain
// state never race across workers.
type worker struct {
	w       *world
	ops     []Op
	tally   tally
	pairs   map[[2]int]*pairState
	written []int64 // per-doc last written version (shared; doc-partitioned)
}

// touch ensures (doc, user) has a reference, returning its state.
func (wk *worker) touch(doc, user int) (*pairState, error) {
	k := [2]int{doc, user}
	if st, ok := wk.pairs[k]; ok {
		return st, nil
	}
	if _, err := wk.w.space.AddReference(wk.w.docIDs[doc], UserName(user)); err != nil {
		return nil, err
	}
	st := &pairState{}
	wk.pairs[k] = st
	wk.tally.pairs++
	return st, nil
}

// run executes the worker's ops.
func (wk *worker) run() error {
	for _, op := range wk.ops {
		switch op.Kind {
		case trace.OpWrite:
			if err := wk.doWrite(op); err != nil {
				return err
			}
		case trace.OpAttach, trace.OpDetach, trace.OpReorder:
			if err := wk.doChurn(op); err != nil {
				return err
			}
		default:
			if err := wk.doRead(op); err != nil {
				return err
			}
		}
	}
	return nil
}

func (wk *worker) doRead(op Op) error {
	if _, err := wk.touch(op.Doc, op.User); err != nil {
		return err
	}
	writtenAtStart := wk.written[op.Doc]
	start := time.Now()
	data, err := wk.w.be.Read(wk.w.docIDs[op.Doc], UserName(op.User))
	if err != nil {
		return fmt.Errorf("swarm read %s/%s: %w", wk.w.docIDs[op.Doc], UserName(op.User), err)
	}
	wk.tally.latencies = append(wk.tally.latencies, time.Since(start))
	wk.tally.reads++
	if v, ok := parseVersion(data); ok && v < writtenAtStart {
		wk.tally.stale++
		if lag := writtenAtStart - v; lag > wk.tally.maxLag {
			wk.tally.maxLag = lag
		}
	}
	return nil
}

func (wk *worker) doWrite(op Op) error {
	doc := wk.w.docIDs[op.Doc]
	next := wk.written[op.Doc] + 1
	data := stampContent(doc, next, int64(64+op.Arg%192))
	if err := wk.w.be.Write(doc, wk.w.owner, data); err != nil {
		return fmt.Errorf("swarm write %s: %w", doc, err)
	}
	wk.written[op.Doc] = next
	wk.tally.writes++
	return nil
}

// doChurn interprets a personal-chain mutation against the pair's
// current chain. Infeasible ops (detach from an empty chain, reorder
// of a single property) count as churn no-ops so the mix stays an
// exact function of the stream.
func (wk *worker) doChurn(op Op) error {
	st, err := wk.touch(op.Doc, op.User)
	if err != nil {
		return err
	}
	doc, user := wk.w.docIDs[op.Doc], UserName(op.User)
	switch op.Kind {
	case trace.OpAttach:
		if len(st.chain) >= maxPersonal {
			wk.tally.churnNoops++
			return nil
		}
		k := op.Arg % catalogSize
		for contains(st.chain, k) {
			k = (k + 1) % catalogSize
		}
		if err := wk.w.space.Attach(doc, user, docspace.Personal, personalTagger(k)); err != nil {
			return fmt.Errorf("swarm attach p%d %s/%s: %w", k, doc, user, err)
		}
		st.chain = append(st.chain, k)
		wk.tally.attaches++
	case trace.OpDetach:
		if len(st.chain) == 0 {
			wk.tally.churnNoops++
			return nil
		}
		k := st.chain[len(st.chain)-1]
		if err := wk.w.space.Detach(doc, user, docspace.Personal, fmt.Sprintf("p%d", k)); err != nil {
			return fmt.Errorf("swarm detach p%d %s/%s: %w", k, doc, user, err)
		}
		st.chain = st.chain[:len(st.chain)-1]
		wk.tally.detaches++
	default: // trace.OpReorder
		if len(st.chain) < 2 {
			wk.tally.churnNoops++
			return nil
		}
		rev := make([]int, len(st.chain))
		names := make([]string, len(st.chain))
		for i := range st.chain {
			rev[i] = st.chain[len(st.chain)-1-i]
			names[i] = fmt.Sprintf("p%d", rev[i])
		}
		if err := wk.w.space.Reorder(doc, user, docspace.Personal, names); err != nil {
			return fmt.Errorf("swarm reorder %s/%s: %w", doc, user, err)
		}
		st.chain = rev
		wk.tally.reorders++
	}
	return nil
}

// Run generates cfg's op stream and executes it: the tentpole
// entrypoint plbench's E18 drives.
func Run(cfg RunConfig) (Frontier, error) {
	return RunOps(cfg, Ops(cfg.Gen))
}

// RunOps executes an explicit op stream against a fresh world — the
// scripted entrypoint the accounting test uses to pin that the
// frontier reports exactly what core.Stats counted.
func RunOps(cfg RunConfig, ops []Op) (Frontier, error) {
	gen := cfg.Gen.Norm()
	cfg.Gen = gen
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}

	w, err := buildWorld(cfg)
	if err != nil {
		return Frontier{}, err
	}
	defer w.close()

	// Partition by document: all of a doc's ops (and so all of any
	// (doc, user) key's ops) run in stream order on one worker.
	parts := make([][]Op, workers)
	for _, op := range ops {
		i := op.Doc % workers
		parts[i] = append(parts[i], op)
	}
	written := make([]int64, gen.Docs)
	wks := make([]*worker, workers)
	for i := range wks {
		wks[i] = &worker{
			w: w, ops: parts[i],
			pairs:   make(map[[2]int]*pairState),
			written: written,
		}
	}

	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range wks {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = wks[i].run() }(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return Frontier{}, e
		}
	}
	elapsed := time.Since(start)

	f := Frontier{
		Phase:   cfg.Phase,
		Backend: cfg.Backend.String(),
		Users:   gen.Users, Docs: gen.Docs,
		Workers: workers, Nodes: len(w.caches),
		Ops:       int64(len(ops)),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	var lats []time.Duration
	for _, wk := range wks {
		f.Reads += wk.tally.reads
		f.Writes += wk.tally.writes
		f.Attaches += wk.tally.attaches
		f.Detaches += wk.tally.detaches
		f.Reorders += wk.tally.reorders
		f.ChurnNoops += wk.tally.churnNoops
		f.DistinctPairs += wk.tally.pairs
		f.StaleReads += wk.tally.stale
		if wk.tally.maxLag > f.MaxVersionLag {
			f.MaxVersionLag = wk.tally.maxLag
		}
		lats = append(lats, wk.tally.latencies...)
	}
	for _, c := range w.caches {
		st := c.Stats()
		f.NodeStats = append(f.NodeStats, st)
		f.Hits += st.Hits
		f.IntermediateHits += st.IntermediateHits
		f.PrefixHits += st.PrefixHits
		f.Misses += st.Misses
		f.Coalesced += st.CoalescedMisses
		f.Invalidations += st.Invalidations
		f.UniversalStageRuns += st.UniversalStageRuns
		f.PrefixSegmentRuns += st.PrefixSegmentRuns
		f.PrefixInstalls += st.PrefixInstalls
		f.BytesRecomputedSaved += st.BytesRecomputedSaved
	}
	f.SegmentRunsSaved = f.IntermediateHits + f.PrefixHits
	if w.router != nil {
		rs := w.router.Stats()
		f.RouterReads, f.RouterWrites, f.Failovers = rs.Reads, rs.Writes, rs.Failovers
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		f.P50Micros = float64(lats[len(lats)/2]) / float64(time.Microsecond)
		f.P99Micros = float64(lats[len(lats)*99/100]) / float64(time.Microsecond)
	}
	return f, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
