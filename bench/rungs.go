package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"placeless/internal/clock"
	"placeless/internal/cluster"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/sig"
	"placeless/internal/simnet"
	"placeless/internal/store"
	"placeless/internal/swarm"
)

// The traced run replays reads through an in-process assembly of the
// daemons' stack, built from public constructors only, one pass per
// rung on a fresh stack cut at that rung. Self time of a hit path is
// the difference between adjacent rungs.
const (
	rungSpace   = iota + 1 // Space.ReadDocumentStaged
	rungCore               // core.Cache.ReadWithInfo
	rungWire               // server.Client.ReadInto
	rungRemote             // remote.Cache.Read
	rungCluster            // cluster.Cache.Read
)

var rungNames = map[int]string{
	rungSpace:   "docspace.ReadDocumentStaged",
	rungCore:    "core.ReadWithInfo",
	rungWire:    "server.ReadInto",
	rungRemote:  "remote.Read",
	rungCluster: "cluster.Read",
}

// timedRepo records a span around every repository call.
type timedRepo struct {
	repo.Repository
	tr *tracer
}

func (r timedRepo) Fetch(path string) (*repo.FetchResult, error) {
	defer r.tr.child("repo.Fetch", time.Now())
	return r.Repository.Fetch(path)
}

func (r timedRepo) Store(path string, data []byte) error {
	defer r.tr.child("repo.Store", time.Now())
	return r.Repository.Store(path, data)
}

func (r timedRepo) Stat(path string) (repo.Meta, error) {
	defer r.tr.child("repo.Stat", time.Now())
	return r.Repository.Stat(path)
}

// timedPeer records a span around every call the router makes to a
// node.
type timedPeer struct {
	cluster.Peer
	tr *tracer
}

func (p timedPeer) Read(doc, user string) ([]byte, error) {
	defer p.tr.child("cluster.Peer.Read", time.Now())
	return p.Peer.Read(doc, user)
}

// segmentTimer is a docspace.PrefixIntermediates that caches nothing:
// every segment of the chain runs, inside a span. It is the "no cache"
// store of the lowest rung, and shows what each transform segment
// costs.
type segmentTimer struct{ tr *tracer }

func (m segmentTimer) Intermediate(_ string, _, _ sig.Signature, _ time.Duration, compute func() ([]byte, error)) ([]byte, bool, error) {
	defer m.tr.child("docspace.segment", time.Now())
	data, err := compute()
	return data, false, err
}

func (m segmentTimer) LongestPrefix(string, sig.Signature, []sig.Signature) ([]byte, int, bool) {
	return nil, 0, false
}

func (m segmentTimer) PrefixIntermediate(doc, _ string, src sig.Signature, cut docspace.Cut, compute func() ([]byte, error)) ([]byte, bool, error) {
	return m.Intermediate(doc, src, cut.FP, cut.Cost, compute)
}

// stack is the in-process assembly up to one rung.
type stack struct {
	space   *docspace.Space
	backing repo.Repository
	st      *store.Store
	cache   *core.Cache
	srv     *server.Server
	clients []*server.Client
	remotes []*remote.Cache
	// missRemote holds one byte, so every read through it is a miss on
	// a subscribed key against a warm origin.
	missRemote *remote.Cache
	router     *cluster.Cache
}

func buildStack(w *workload, level int, dir string, tr *tracer) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	root := filepath.Join(dir, "root")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	clk := clock.Real{}
	fs, err := repo.NewFS("fs", clk, simnet.NewPath("local", 1), root)
	if err != nil {
		return nil, err
	}
	s.backing = timedRepo{fs, tr}
	s.space = docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("local", 2)))
	if level < rungCore {
		return s, nil
	}
	if s.st, _, err = store.Open(filepath.Join(dir, "store"), store.Options{}); err != nil {
		return nil, err
	}
	s.cache = core.New(s.space, core.Options{Name: "bench", Capacity: w.originCache, Memoize: true, Store: s.st})
	if level < rungWire {
		return s, nil
	}
	s.srv = server.NewCached(s.space, s.backing, s.cache)
	s.srv.SetStore(s.st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = s.srv.Serve(ln) }() // returns when close() closes the listener
	dial := func() (*server.Client, error) {
		c, err := server.Dial(ln.Addr().String(), server.WithCallTimeout(10*time.Second))
		if err == nil {
			s.clients = append(s.clients, c)
		}
		return c, err
	}
	nodes := 1
	if level == rungCluster {
		nodes = 3
	}
	for i := 0; i < nodes; i++ {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		if level >= rungRemote {
			s.remotes = append(s.remotes, remote.New(c, remote.Options{}))
		}
	}
	if level == rungRemote {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		s.missRemote = remote.New(c, remote.Options{Capacity: 1})
	}
	if level == rungCluster {
		s.router = cluster.New(cluster.Options{Replicas: 2})
		for i, rc := range s.remotes {
			if err := s.router.AddNode(fmt.Sprintf("node#%d", i), timedPeer{rc, tr}); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *stack) close() {
	for _, rc := range s.remotes {
		rc.Close()
	}
	if s.missRemote != nil {
		s.missRemote.Close()
	}
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.cache != nil {
		s.cache.Close()
	}
	if s.st != nil {
		s.st.Close()
	}
}

// populate mirrors env.populate with direct calls.
func (s *stack) populate(w *workload, pairs []pairKey) error {
	created := make(map[int]bool)
	for _, p := range pairs {
		id, user := swarm.DocID(p.doc), swarm.UserName(p.user)
		if !created[p.doc] {
			created[p.doc] = true
			path := "/" + id
			if err := s.backing.Store(path, stampContent(id, 0, w.docBytes)); err != nil {
				return err
			}
			if _, err := s.space.CreateDocument(id, ownerName, &property.RepoBitProvider{Repo: s.backing, Path: path}); err != nil {
				return err
			}
			for _, spec := range w.universal {
				if err := s.attach(id, "", docspace.Universal, spec); err != nil {
					return err
				}
			}
		}
		if _, err := s.space.AddReference(id, user); err != nil {
			return err
		}
		if err := s.attach(id, user, docspace.Personal, "watermark:"+user); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) attach(doc, user string, level docspace.Level, spec string) error {
	p, err := server.ParsePropertySpec(spec)
	if err != nil {
		return err
	}
	return s.space.Attach(doc, user, level, p)
}

// rungTimes is what the in-process replays measured, in microseconds
// unless named otherwise.
type rungTimes struct {
	p50             map[int]float64 // rung → warm p50
	remoteMissP50   float64
	wireAllocPerOp  float64 // bytes
	clusterPickNS   float64
	writeP50        float64
	attachP50       float64
	sigMBPerS       float64
	storeOpenS      float64
	storePutBlobP50 float64
	storeGetBlobP50 float64
}

func p50us(d []time.Duration) float64 { return 1000 * quantileMS(sortDurations(d), 0.5) }

// replay times call on reads until budget is spent or reads run out.
// Each call is the root span of its op.
func replay(tr *tracer, rung string, reads []swarm.Op, budget time.Duration, call func(doc, user string) error) ([]time.Duration, error) {
	var out []time.Duration
	deadline := time.Now().Add(budget)
	for i, op := range reads {
		sp := tr.begin(rung, rung, i)
		err := call(swarm.DocID(op.Doc), swarm.UserName(op.User))
		out = append(out, tr.end(sp))
		if err != nil {
			return nil, fmt.Errorf("bench: rung %s: %w", rung, err)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return out, nil
}

// runRungs replays reads through each rung and takes the direct-call
// timings. budget bounds each timed pass.
func runRungs(w *workload, reads []swarm.Op, workDir string, tr *tracer, budget time.Duration) (*rungTimes, error) {
	rt := &rungTimes{p50: make(map[int]float64)}
	pairs := distinctPairs(reads)
	for level := rungSpace; level <= rungCluster; level++ {
		dir, err := os.MkdirTemp(workDir, "rung-")
		if err != nil {
			return nil, err
		}
		s, err := buildStack(w, level, dir, tr)
		if err != nil {
			return nil, err
		}
		err = s.measure(w, level, reads, pairs, tr, budget, rt)
		s.close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return rt, storeTimes(w, workDir, tr, rt)
}

func (s *stack) measure(w *workload, level int, reads []swarm.Op, pairs []pairKey, tr *tracer, budget time.Duration, rt *rungTimes) error {
	if err := s.populate(w, pairs); err != nil {
		return err
	}
	var buf []byte
	var call func(doc, user string) error
	switch level {
	case rungSpace:
		call = func(doc, user string) error {
			_, _, _, err := s.space.ReadDocumentStaged(doc, user, segmentTimer{tr})
			return err
		}
	case rungCore:
		call = func(doc, user string) error { _, _, err := s.cache.ReadWithInfo(doc, user); return err }
	case rungWire:
		buf = make([]byte, 0, 2*w.docBytes)
		call = func(doc, user string) error { _, _, err := s.clients[0].ReadInto(doc, user, buf); return err }
	case rungRemote:
		call = func(doc, user string) error { _, err := s.remotes[0].Read(doc, user); return err }
	case rungCluster:
		call = func(doc, user string) error { _, err := s.router.Read(doc, user); return err }
	}
	// Warm every layer of the stack; the lowest rung has none.
	if level > rungSpace {
		for _, p := range pairs {
			if err := call(swarm.DocID(p.doc), swarm.UserName(p.user)); err != nil {
				return fmt.Errorf("bench: warm rung %s: %w", rungNames[level], err)
			}
		}
	}
	var before runtime.MemStats
	if level == rungWire {
		runtime.ReadMemStats(&before)
	}
	lat, err := replay(tr, rungNames[level], reads, budget, call)
	if err != nil {
		return err
	}
	if level == rungWire {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rt.wireAllocPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(lat))
	}
	rt.p50[level] = p50us(lat)

	switch level {
	case rungSpace:
		return s.directTimes(w, pairs, tr, rt)
	case rungRemote:
		miss := func(doc, user string) error { _, err := s.missRemote.Read(doc, user); return err }
		for _, p := range pairs {
			if err := miss(swarm.DocID(p.doc), swarm.UserName(p.user)); err != nil {
				return err
			}
		}
		lat, err := replay(tr, "remote.Read.miss", reads, budget, miss)
		if err != nil {
			return err
		}
		rt.remoteMissP50 = p50us(lat)
	case rungCluster:
		const picks = 20000
		t0 := time.Now()
		for i := 0; i < picks; i++ {
			p := pairs[i%len(pairs)]
			s.router.Owners(swarm.DocID(p.doc), swarm.UserName(p.user))
		}
		rt.clusterPickNS = float64(time.Since(t0).Nanoseconds()) / picks
	}
	return nil
}

// directTimes calls the document space's write and attach paths and
// the signature function with no cache above them.
func (s *stack) directTimes(w *workload, pairs []pairKey, tr *tracer, rt *rungTimes) error {
	const calls = 100
	var writes, attaches []time.Duration
	for i := 0; i < calls; i++ {
		p := pairs[i%len(pairs)]
		doc, user := swarm.DocID(p.doc), swarm.UserName(p.user)
		sp := tr.begin("direct", "docspace.WriteDocument", i)
		err := s.space.WriteDocument(doc, ownerName, stampContent(doc, int64(i+1), w.docBytes))
		writes = append(writes, tr.end(sp))
		if err != nil {
			return err
		}
		if err := s.space.Detach(doc, user, docspace.Personal, "watermark:"+user); err != nil {
			return err
		}
		mark, err := server.ParsePropertySpec("watermark:" + user)
		if err != nil {
			return err
		}
		sp = tr.begin("direct", "docspace.Attach", i)
		err = s.space.Attach(doc, user, docspace.Personal, mark)
		attaches = append(attaches, tr.end(sp))
		if err != nil {
			return err
		}
	}
	rt.writeP50, rt.attachP50 = p50us(writes), p50us(attaches)

	body := stampContent("sig", 0, w.docBytes)
	var n int
	t0 := time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		sig.Of(body)
		n++
	}
	rt.sigMBPerS = float64(n*len(body)) / 1e6 / time.Since(t0).Seconds()
	return nil
}

// storeTimes drives the disk tier alone: append blobs of the
// workload's size, read them back, close, and time the scan-on-open.
func storeTimes(w *workload, workDir string, tr *tracer, rt *rungTimes) error {
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	const blobs = 256
	sigs := make([]sig.Signature, blobs)
	var puts, gets []time.Duration
	for i := range sigs {
		body := stampContent(fmt.Sprintf("blob-%d", i), 0, w.docBytes)
		sp := tr.begin("direct", "store.PutBlob", i)
		sigs[i], err = st.PutBlob(body)
		puts = append(puts, tr.end(sp))
		if err != nil {
			st.Close()
			return err
		}
	}
	for i, sg := range sigs {
		sp := tr.begin("direct", "store.GetBlob", i)
		_, ok := st.GetBlob(sg)
		gets = append(gets, tr.end(sp))
		if !ok {
			st.Close()
			return fmt.Errorf("bench: store lost blob %d", i)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	sp := tr.begin("direct", "store.Open", 0)
	st, _, err = store.Open(dir, store.Options{})
	rt.storeOpenS = tr.end(sp).Seconds()
	if err != nil {
		return err
	}
	rt.storePutBlobP50, rt.storeGetBlobP50 = p50us(puts), p50us(gets)
	return st.Close()
}
