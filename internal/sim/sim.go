package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"placeless/internal/clock"
	"placeless/internal/cluster"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
	"placeless/internal/store"
)

// epoch is the virtual-time origin of every run.
var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

// opEpsilon separates consecutive operations in virtual time so
// version boundaries do not collapse onto one instant.
const opEpsilon = 20 * time.Microsecond

// Config selects one simulated run. Everything about the run — stack
// topology, cache options, workload, fault schedule — derives
// deterministically from Seed; the pointer fields let scripted
// regression schedules pin a dimension instead of deriving it.
type Config struct {
	Seed int64
	// Ops is the number of workload operations (default 350).
	Ops int
	// StallBudget is the REAL time an operation may stay blocked (while
	// the watchdog advances the virtual clock under it) before the run
	// is declared deadlocked. Default 20s.
	StallBudget time.Duration

	// Overrides for scripted schedules; nil derives from the seed.
	Remote         *bool
	Memoize        *bool
	Capacity       *int64
	RemoteCapacity *int64
	// Durable attaches the content-addressed disk tier; derived seeds
	// run it on roughly a third of local-only worlds, where the
	// restart op (kill or graceful close, then recovery over the same
	// store directory) joins the schedule.
	Durable *bool
	// Cluster pins the consistent-hash cluster dimension: n > 0 starts
	// the world with n cache nodes behind a cluster router (requires
	// the remote stack), 0 disables it. Derived, roughly a third of
	// remote worlds run 2–4 nodes; the membership, kill, and cluster
	// read ops then join the schedule.
	Cluster *int
}

// World is one fully-built simulated deployment plus its reference
// model. All op methods are driver-sequential: one op at a time, with
// the watchdog goroutine advancing the virtual clock when an op blocks
// on network delivery or timers.
type World struct {
	cfg Config
	rng *rand.Rand

	clk   *clock.Virtual
	net   *simnet.Net
	src   *repo.Mem
	space *docspace.Space
	cache *core.Cache

	remoteOn  bool
	remoteCap int64 // the base remote cache's capacity; 0 = unlimited
	srv       *server.Server
	client    *server.Client
	rc        *remote.Cache
	// blobs is the one blob store of the sidecar side: the base remote
	// cache and every cluster node, joiners included, keep their bytes
	// in it, as plcached's ring does.
	blobs *core.BlobStore

	// Cluster dimension: extra cache nodes behind a consistent-hash
	// router, all served by the same origin server over separate
	// listeners and connections. clNodes is append-only (a departed
	// node is marked closed, never removed) so node names and oracle
	// bounds stay stable for the whole run.
	clusterOn  bool
	clReplicas int
	clNodes    []*clusterNode
	cl         *cluster.Cache
	clSeq      int
	clRng      *rand.Rand

	durable  bool
	storeDir string
	st       *store.Store
	coreOpts core.Options

	model    *model
	tr       trace
	opIdx    int
	propSeq  int
	writeSeq int
}

// NewWorld builds the deployment for cfg. The derivation draws every
// random choice in a fixed order, so a seed always denotes the same
// world even when overrides pin individual dimensions.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 350
	}
	if cfg.StallBudget <= 0 {
		cfg.StallBudget = 20 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{cfg: cfg, rng: rng, model: newModel()}
	w.clk = clock.NewVirtual(epoch)
	w.net = simnet.NewNet(w.clk, rand.New(rand.NewSource(cfg.Seed^0x5DEECE66D)))
	w.src = repo.NewMem("src", w.clk, simnet.NewPath("loop", cfg.Seed+1))
	w.space = docspace.New(w.clk, repo.NewDMS("dms", w.clk, simnet.NewPath("loop", cfg.Seed+2)))

	// Core cache shape (drawn before overrides are applied). The draws
	// marked retired once picked the write-back mode, its flush period
	// and its dirty bound; they stay, discarded, so every seed still
	// denotes the same world in every other dimension.
	_ = rng.Intn(2) // retired: write mode
	memoize := rng.Intn(2) == 1
	var capacity int64
	if rng.Intn(2) == 1 {
		capacity = 512 + rng.Int63n(8192)
	}
	hitCost := time.Duration(rng.Intn(800)) * time.Microsecond
	fillCost := time.Duration(rng.Intn(800)) * time.Microsecond
	if rng.Intn(2) == 1 {
		_ = rng.Intn(200) // retired: flush period
	}
	if rng.Intn(2) == 1 {
		_ = rng.Intn(4) // retired: dirty bound
	}
	w.remoteOn = rng.Float64() < 0.7
	// These draws once picked the remote cache's outage policy and its
	// staleness bound; they stay so every seed still denotes the same
	// world in every other dimension.
	_ = rng.Intn(2)
	if rng.Intn(2) == 1 {
		_ = rng.Intn(300)
	}
	if rng.Intn(2) == 1 {
		w.remoteCap = 512 + rng.Int63n(4096)
	}

	if cfg.Memoize != nil {
		memoize = *cfg.Memoize
	}
	if cfg.Capacity != nil {
		capacity = *cfg.Capacity
	}
	if cfg.Remote != nil {
		w.remoteOn = *cfg.Remote
	}
	if cfg.RemoteCapacity != nil {
		w.remoteCap = *cfg.RemoteCapacity
	}

	// The disk tier draws from its own generator so attaching it never
	// perturbs the existing seed → world derivation above; a seed that
	// reproduced a failure before the tier existed still denotes the
	// same topology and workload.
	w.durable = rand.New(rand.NewSource(cfg.Seed^0x6469736b)).Float64() < 0.35
	if cfg.Durable != nil {
		w.durable = *cfg.Durable
	}

	w.coreOpts = core.Options{
		Name:     "sim",
		Capacity: capacity,
		HitCost:  hitCost,
		FillCost: fillCost,
		Memoize:  memoize,
	}
	if w.durable {
		dir, err := os.MkdirTemp("", "placeless-sim-store-")
		if err != nil {
			return nil, fmt.Errorf("sim: store dir: %w", err)
		}
		w.storeDir = dir
		st, _, err := store.Open(dir, store.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("sim: store open: %w", err)
		}
		w.st = st
		w.coreOpts.Store = st
	}
	w.cache = core.New(w.space, w.coreOpts)

	if err := w.setupDocs(); err != nil {
		return nil, fmt.Errorf("sim: setup: %w", err)
	}

	if w.remoteOn {
		w.srv = server.NewCached(w.space, w.src, w.cache)
		ln := w.net.Listen("srv")
		go func() { _ = w.srv.Serve(ln) }()
		client, err := server.Dial("srv",
			server.WithDialer(w.net.Dial),
			server.WithJitterSeed(cfg.Seed),
			server.WithCallTimeout(300*time.Millisecond),
			server.WithDialTimeout(100*time.Millisecond),
			server.WithWriteTimeout(100*time.Millisecond),
			server.WithReconnect(time.Millisecond, 8*time.Millisecond),
		)
		if err != nil {
			return nil, fmt.Errorf("sim: dial: %w", err)
		}
		w.client = client
		// Ping before any fault can be armed, so Serve is known to be
		// accepting (and the teardown never races the startup).
		if _, err := client.Stats(); err != nil {
			return nil, fmt.Errorf("sim: ping: %w", err)
		}
		w.blobs = core.NewBlobStore()
		w.rc = remote.New(client, remote.Options{
			Capacity: w.remoteCap,
			Clock:    w.clk,
			Blobs:    w.blobs,
		})
		// The cluster dimension draws from its own generator (like the
		// disk tier) so pre-cluster seeds keep denoting the same base
		// worlds; the extra nodes, router, and cluster ops only exist
		// where this stream turns them on.
		w.clRng = rand.New(rand.NewSource(cfg.Seed ^ 0x636c7573))
		w.clusterOn = w.clRng.Float64() < 0.35
		nodes := 2 + w.clRng.Intn(3)
		w.clReplicas = 1 + w.clRng.Intn(2)
		if cfg.Cluster != nil {
			w.clusterOn = *cfg.Cluster > 0
			if w.clusterOn {
				nodes = *cfg.Cluster
			}
		}
		if w.clusterOn {
			w.cl = cluster.New(cluster.Options{Replicas: w.clReplicas, VNodes: 64})
			for i := 0; i < nodes; i++ {
				if err := w.addClusterNode(); err != nil {
					return nil, fmt.Errorf("sim: cluster node: %w", err)
				}
			}
		}
		// Roughly half the remote seeds start with a lossy wire.
		if rng.Intn(2) == 1 {
			w.drawFaults()
		}
	}
	return w, nil
}

// clusterNode is one simulated cache daemon in the ring: its own
// listener endpoint on the shared origin server, its own resilient
// client connection (carrying its own subscriptions — the invalidation
// fanout), and its own remote cache, whose bytes the world's blob store
// keeps with every other node's.
type clusterNode struct {
	name   string
	client *server.Client
	rc     *remote.Cache
	closed bool // left the ring; rc and client are closed
}

// addClusterNode boots a fresh node and joins it to the ring. During a
// run the dial can legally fail (the workload may have the wire down);
// the caller treats that as an aborted join.
func (w *World) addClusterNode() error {
	name := fmt.Sprintf("n%d", w.clSeq)
	w.clSeq++
	ln := w.net.Listen("srv-" + name)
	go func() { _ = w.srv.Serve(ln) }()
	// This draw once picked the node's wire protocol; it stays so every
	// cluster seed still denotes the same topology and op schedule.
	_ = w.clRng.Intn(2)
	client, err := server.Dial("srv-"+name,
		server.WithDialer(w.net.Dial),
		server.WithJitterSeed(w.cfg.Seed+1000+int64(w.clSeq)),
		server.WithCallTimeout(300*time.Millisecond),
		server.WithDialTimeout(100*time.Millisecond),
		server.WithWriteTimeout(100*time.Millisecond),
		server.WithReconnect(time.Millisecond, 8*time.Millisecond),
	)
	if err != nil {
		return err
	}
	// As with the base client: prove Serve is accepting before anything
	// can race the startup. Mid-run the ping can time out under faults;
	// the join is then aborted.
	if _, err := client.Stats(); err != nil {
		_ = client.Close()
		return err
	}
	var capacity int64
	if w.clRng.Intn(2) == 1 {
		capacity = 512 + w.clRng.Int63n(4096)
	}
	rc := remote.New(client, remote.Options{
		Capacity: capacity,
		Clock:    w.clk,
		Blobs:    w.blobs,
	})
	n := &clusterNode{name: name, client: client, rc: rc}
	w.clNodes = append(w.clNodes, n)
	w.model.addRemoteNode(name)
	return w.cl.AddNode(name, rc)
}

// Close tears the world down; safe after failures.
func (w *World) Close() {
	if w.remoteOn {
		for _, n := range w.clNodes {
			if !n.closed {
				n.rc.Close()
				_ = n.client.Close()
				n.closed = true
			}
		}
		w.rc.Close()
		_ = w.client.Close()
		_ = w.srv.Close()
	}
	w.cache.Close()
	if w.st != nil {
		_ = w.st.Close()
	}
	if w.storeDir != "" {
		_ = os.RemoveAll(w.storeDir)
	}
}

// restartDurable models a process restart over the durable tier: the
// cache dies (the cache buffers nothing, so a crash and a graceful
// shutdown are the same Close), the store's file handles close, and a
// successor opens the same directory — running the full
// scan-and-replay recovery — and boots a new cache over it. The
// document space and repositories survive: they model the Placeless
// middleware, which outlives any one cache process.
func (w *World) restartDurable() error {
	if !w.durable {
		return fmt.Errorf("sim: restartDurable on a world with no disk tier")
	}
	w.cache.Close()
	if err := w.st.Close(); err != nil {
		return fmt.Errorf("sim: restart store close: %w", err)
	}
	st, _, err := store.Open(w.storeDir, store.Options{})
	if err != nil {
		return fmt.Errorf("sim: restart store reopen: %w", err)
	}
	w.st = st
	w.coreOpts.Store = st
	w.cache = core.New(w.space, w.coreOpts)
	return nil
}

// setupDocs creates 2–4 documents with 2–4 users each (the first user
// owns the document and is its only writer) and a few initial
// properties, mirroring everything into the model.
func (w *World) setupDocs() error {
	docNames := []string{"alpha", "beta", "gamma", "delta"}
	pool := []string{"amy", "bob", "cam", "dee"}
	nDocs := 2 + w.rng.Intn(3)
	for i := 0; i < nDocs; i++ {
		id := docNames[i]
		users := append([]string{}, pool...)
		w.rng.Shuffle(len(users), func(a, b int) { users[a], users[b] = users[b], users[a] })
		users = users[:2+w.rng.Intn(3)]
		content := []byte(fmt.Sprintf("doc:%s:%08x", id, w.rng.Int63()))
		w.src.Store("/"+id, content)
		if _, err := w.space.CreateDocument(id, users[0], &property.RepoBitProvider{Repo: w.src, Path: "/" + id}); err != nil {
			return err
		}
		for _, u := range users[1:] {
			if _, err := w.space.AddReference(id, u); err != nil {
				return err
			}
		}
		w.model.addDoc(id, users, content, w.clk.Now())
		for n := w.rng.Intn(3); n > 0; n-- {
			if err := w.attachProp(id, "", docspace.Universal); err != nil {
				return err
			}
		}
		for _, u := range users {
			if w.rng.Intn(3) == 0 {
				if err := w.attachProp(id, u, docspace.Personal); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// guarded runs fn on its own goroutine while the watchdog advances the
// virtual clock — delayed messages and timers only move when virtual
// time does. If fn stays blocked past the real StallBudget the run is
// declared deadlocked.
func (w *World) guarded(op string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	deadline := time.Now().Add(w.cfg.StallBudget)
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case err := <-done:
			return err
		case <-ticker.C:
			if time.Now().After(deadline) {
				return fmt.Errorf("deadlock suspected: op %q still blocked after %v of real time (virtual now %s, pending timers %d, inflight messages %d)",
					op, w.cfg.StallBudget, w.clk.Now().Format("15:04:05.000000"),
					w.clk.PendingTimers(), w.net.Inflight())
			}
			if !w.clk.AdvanceToNextTimer() {
				w.clk.Advance(10 * time.Millisecond)
			}
		}
	}
}

// endOp closes out an operation: a small virtual-time step so the next
// op starts at a distinct instant.
func (w *World) endOp() {
	w.clk.Advance(opEpsilon)
}

// checkLocal verifies a strongly-consistent read against the model.
func (w *World) checkLocal(doc, user string, got []byte, t0 time.Time) error {
	if ok, hist := w.model.legalLocal(doc, user, got, t0, w.clk.Now()); !ok {
		return fmt.Errorf("STALE LOCAL READ %s/%s returned %q, legal in no model state during the read\n  %s",
			doc, user, truncate(got), hist)
	}
	return nil
}

// checkRemote verifies a push-invalidated remote read against the
// model's causal staleness bound for the base remote cache.
func (w *World) checkRemote(doc, user string, got []byte) error {
	return w.checkRemoteAt("rc", doc, user, got)
}

// checkRemoteAt verifies a push-invalidated remote read served by the
// named node against that node's causal staleness bound.
func (w *World) checkRemoteAt(node, doc, user string, got []byte) error {
	if ok, hist := w.model.legalRemoteAt(node, doc, user, got); !ok {
		return fmt.Errorf("STALE REMOTE READ %s/%s via %s returned %q, older than the proven staleness bound\n  %s",
			doc, user, node, truncate(got), hist)
	}
	return nil
}

// settlePeer is one (client, cache) pair settle must prove quiescent:
// the base remote cache plus every cluster node still in the ring.
type settlePeer struct {
	name   string
	client *server.Client
	rc     *remote.Cache
}

func (w *World) settlePeers() []settlePeer {
	peers := []settlePeer{{"rc", w.client, w.rc}}
	for _, n := range w.clNodes {
		if !n.closed {
			peers = append(peers, settlePeer{n.name, n.client, n.rc})
		}
	}
	return peers
}

// settle drives the deployment to a quiescent, provably-consistent
// point: faults off, partition healed, every in-flight message
// delivered, and — for the base remote cache and every cluster node
// still in the ring — every push the server sent applied, the connection
// up, and the post-reconnect suspect window closed. After settling,
// the model tightens every key's staleness bound on every node.
func (w *World) settle() error {
	if !w.remoteOn {
		return nil
	}
	w.net.SetFaults(0, 0, 0, 0)
	w.net.Heal()
	deadline := time.Now().Add(10 * time.Second)
	stable := 0
	for stable < 3 {
		w.net.Flush()
		w.clk.Advance(5 * time.Millisecond)
		quiet := true
		for _, p := range w.settlePeers() {
			// Round-trip barrier: responses share the connection (and
			// its FIFO framing) with invalidation pushes, and the read
			// loop applies a push before it decodes the next frame, so
			// once a Stats call answers, every push the server sent
			// before that answer has been applied. Without the barrier
			// a push sitting undecoded in the receive buffer is
			// invisible to every counter and the loop declares
			// quiescence early.
			client, rc := p.client, p.rc
			barrier := client.State() == server.StateConnected &&
				w.guarded("settle-barrier", func() error {
					_, err := client.Stats()
					return err
				}) == nil
			if !(barrier &&
				client.State() == server.StateConnected &&
				!rc.Suspect()) {
				quiet = false
				break
			}
		}
		if quiet && w.net.Inflight() == 0 {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("settle did not converge: state=%v suspect=%v inflight=%d",
				w.client.State(), w.rc.Suspect(), w.net.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range w.model.order {
		for _, u := range w.model.docs[id].users {
			w.model.settleKey(id, u)
		}
	}
	return nil
}

// finalCheck settles, and then requires every view to equal the
// model's current state exactly — the lost-write detector: a write that
// vanished leaves a reachable view that never converges. Then, settled
// again, every remote cache's charges and the blob store they share
// must audit clean (auditBlobs).
func (w *World) finalCheck() error {
	if err := w.settle(); err != nil {
		return err
	}
	for _, id := range w.model.order {
		d := w.model.docs[id]
		for _, u := range d.users {
			want := w.model.current(id, u)
			if err := w.doLocalRead(id, u); err != nil {
				return err
			}
			got, err := w.cache.Read(id, u)
			if err != nil {
				return fmt.Errorf("final local read %s/%s: %w", id, u, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("LOST WRITE (local): final read of %s/%s = %q, model says %q\n  %s",
					id, u, truncate(got), truncate(want), w.model.describe(mkey(id, u), time.Time{}, time.Time{}))
			}
			if w.remoteOn {
				var rgot []byte
				read := func() error {
					return w.guarded("final-remote-read", func() error {
						var e error
						rgot, e = w.rc.Read(id, u)
						return e
					})
				}
				// One final read can still lose its real-time call
				// deadline to scheduler starvation (the 300ms budget is
				// wall-clock, and -race plus a single CPU make it
				// reachable) or overlap one last straggling
				// invalidation. Both are transient: re-settling drains
				// them, so only staleness that survives repeated
				// settle+read cycles — a genuinely lost write or
				// invalidation — is reported.
				rerr := read()
				for tries := 0; tries < 3 && (rerr != nil || !bytes.Equal(rgot, want)); tries++ {
					if err := w.settle(); err != nil {
						return err
					}
					rerr = read()
				}
				if rerr != nil {
					return fmt.Errorf("final remote read %s/%s: %w", id, u, rerr)
				}
				if !bytes.Equal(rgot, want) {
					return fmt.Errorf("LOST WRITE (remote): final read of %s/%s = %q, model says %q\n  %s",
						id, u, truncate(rgot), truncate(want), w.model.describe(mkey(id, u), time.Time{}, time.Time{}))
				}
			}
			if w.clusterOn && len(w.cl.Nodes()) > 0 {
				var cgot []byte
				var via string
				read := func() error {
					return w.guarded("final-cluster-read", func() error {
						var e error
						cgot, via, e = w.cl.ReadVia(id, u)
						return e
					})
				}
				cerr := read()
				for tries := 0; tries < 3 && (cerr != nil || !bytes.Equal(cgot, want)); tries++ {
					if err := w.settle(); err != nil {
						return err
					}
					cerr = read()
				}
				if cerr != nil {
					return fmt.Errorf("final cluster read %s/%s: %w", id, u, cerr)
				}
				if !bytes.Equal(cgot, want) {
					return fmt.Errorf("LOST WRITE (cluster): final read of %s/%s via %s = %q, model says %q\n  %s",
						id, u, via, truncate(cgot), truncate(want), w.model.describe(mkey(id, u), time.Time{}, time.Time{}))
				}
			}
		}
	}
	return w.auditBlobs()
}

// auditBlobs settles and checks the sidecar side's shared bytes: each
// remote cache, the departed nodes' closed ones included, is charged
// exactly the blobs its own records hold, so its capacity evicted by
// what the node alone holds, and the store keeps exactly the bytes of
// its blobs, no head freed while a tail builds on it.
func (w *World) auditBlobs() error {
	if !w.remoteOn {
		return nil
	}
	if err := w.settle(); err != nil {
		return err
	}
	caches := []*remote.Cache{w.rc}
	for _, n := range w.clNodes {
		caches = append(caches, n.rc)
	}
	for _, rc := range caches {
		if err := rc.Audit(); err != nil {
			return fmt.Errorf("blob audit: %w", err)
		}
	}
	if err := w.blobs.Audit(); err != nil {
		return fmt.Errorf("blob audit: %w", err)
	}
	return nil
}

// RunSeed executes one full seeded schedule and returns nil when every
// read was legal, no write was lost, and nothing deadlocked. On
// failure the event trace is dumped to a replayable file.
func RunSeed(cfg Config) error {
	if cfg.Ops <= 0 {
		cfg.Ops = 350
	}
	w, err := NewWorld(cfg)
	if err != nil {
		return err
	}
	defer w.Close()
	cfg = w.cfg // normalized defaults, for the repro line
	for i := 0; i < cfg.Ops; i++ {
		if err := w.step(i); err != nil {
			return dumpFailure(cfg, &w.tr, err)
		}
	}
	w.opIdx = cfg.Ops
	if err := w.finalCheck(); err != nil {
		return dumpFailure(cfg, &w.tr, err)
	}
	return nil
}
