package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"placeless/internal/server"
	"placeless/internal/swarm"
)

// setupLanes is how many goroutines pipeline set-up RPCs through the
// one origin client. Lanes are split by document, so a document is
// created before anything is attached to it.
const setupLanes = 8

// env is one deployment: an origin, a sidecar, the benchmark's own
// wire client to the origin, and the closed-loop workers.
type env struct {
	w      *workload
	binDir string
	dir    string
	// place gives each process its CPUs; the zero value leaves them
	// unpinned.
	place placement

	origin, sidecar                     *proc
	originAddr, originHTTP, sidecarHTTP string

	// ctl carries set-up and personal-chain churn to the origin.
	ctl     *server.Client
	pairs   []pairKey
	workers []*worker
	tracer  *tracer

	// Totals over origin incarnations that have been killed, so that a
	// restart does not lose their share of the deltas.
	deadOrigin     procSample
	deadOriginSeen scrape
}

// newEnv launches both daemons in a fresh directory under workRoot and
// waits until each answers on every port it serves.
func newEnv(w *workload, binDir, workRoot string, place placement, pairs []pairKey, clients int) (e *env, err error) {
	dir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	e = &env{w: w, binDir: binDir, dir: dir, place: place, pairs: pairs, deadOriginSeen: scrape{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	e.originAddr, e.originHTTP, e.sidecarHTTP = ports[0], ports[1], ports[2]
	if err := e.startOrigin(); err != nil {
		return nil, err
	}
	if err := waitHTTP(e.origin, "http://"+e.originHTTP+"/metrics"); err != nil {
		return nil, err
	}
	if e.ctl, err = waitWire(e.origin, e.originAddr); err != nil {
		return nil, err
	}

	args := []string{"-addr", e.sidecarHTTP,
		"-capacity", strconv.FormatInt(w.sidecarCap, 10),
		// Short backoff, so recovery_s measures the system and not the
		// default 50 ms–5 s reconnect schedule.
		"-backoff-base", "10ms", "-backoff-max", "100ms"}
	if w.cluster {
		o := e.originAddr
		args = append(args, "-cluster", strings.Join([]string{o, o, o}, ","), "-replicas", "2")
	} else {
		args = append(args, "-server", e.originAddr)
	}
	if e.sidecar, err = startProc("plcached", place.sidecar, place.generator, filepath.Join(binDir, "plcached"), args...); err != nil {
		return nil, err
	}
	if err := waitHTTP(e.sidecar, "http://"+e.sidecarHTTP+"/metrics"); err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		e.workers = append(e.workers, newWorker(e))
	}
	return e, nil
}

// startOrigin launches placelessd with every shipped tier on. A
// restart passes the same directories, so the journal, the documents
// and the disk tier carry over.
func (e *env) startOrigin() (err error) {
	e.origin, err = startProc("placelessd", e.place.origin, e.place.generator, filepath.Join(e.binDir, "placelessd"),
		"-addr", e.originAddr, "-http", e.originHTTP,
		"-root", filepath.Join(e.dir, "root"),
		"-journal", filepath.Join(e.dir, "journal"),
		"-store", filepath.Join(e.dir, "store"),
		"-cache", strconv.FormatInt(e.w.originCache, 10), "-memoize")
	return err
}

// killOrigin is kill -9. The incarnation's counters are read first and
// kept, since its /proc entry and its /metrics die with it.
func (e *env) killOrigin() error {
	s, seen, err := e.originLive()
	if err != nil {
		return err
	}
	e.deadOrigin.add(s)
	e.deadOriginSeen.add(seen)
	e.origin.kill()
	return nil
}

// originLive reads the running incarnation's counters.
func (e *env) originLive() (procSample, scrape, error) {
	s, err := sampleProc(e.origin.pid())
	if err != nil {
		return s, nil, err
	}
	seen, err := fetchMetrics(e.originHTTP)
	return s, seen, err
}

// originTotals reads the origin's counters summed over every
// incarnation so far.
func (e *env) originTotals() (procSample, scrape, error) {
	s, seen, err := e.originLive()
	if err != nil {
		return s, nil, err
	}
	s.add(e.deadOrigin)
	seen.add(e.deadOriginSeen)
	return s, seen, nil
}

func (e *env) close() {
	if e.ctl != nil {
		e.ctl.Close()
	}
	for _, wk := range e.workers {
		wk.conn.close()
	}
	for _, p := range []*proc{e.sidecar, e.origin} {
		if p != nil {
			p.kill()
		}
	}
	os.RemoveAll(e.dir)
}

// logs is both daemons' captured output, printed when a run fails.
func (e *env) logs() string {
	var b strings.Builder
	for _, p := range []*proc{e.origin, e.sidecar} {
		if p != nil {
			b.WriteString(p.logs())
		}
	}
	return b.String()
}

// populate creates every document with its universal chain, and gives
// every pair the stream touches a reference and the personal watermark.
func (e *env) populate() error {
	byDoc := make(map[int][]int)
	var docs []int
	for _, p := range e.pairs {
		if _, ok := byDoc[p.doc]; !ok {
			docs = append(docs, p.doc)
		}
		byDoc[p.doc] = append(byDoc[p.doc], p.user)
	}
	errs := make([]error, setupLanes)
	var wg sync.WaitGroup
	for lane := 0; lane < setupLanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(docs); i += setupLanes {
				if err := e.populateDoc(docs[i], byDoc[docs[i]]); err != nil {
					errs[lane] = err
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *env) populateDoc(doc int, users []int) error {
	id := swarm.DocID(doc)
	if err := e.ctl.CreateDocument(id, ownerName, stampContent(id, 0, e.w.docBytes)); err != nil {
		return fmt.Errorf("create %s: %w", id, err)
	}
	for _, spec := range e.w.universal {
		if err := e.ctl.Attach(id, "", false, spec); err != nil {
			return fmt.Errorf("attach %s to %s: %w", spec, id, err)
		}
	}
	for _, u := range users {
		name := swarm.UserName(u)
		if err := e.ctl.AddReference(id, name); err != nil {
			return fmt.Errorf("reference %s/%s: %w", id, name, err)
		}
		if err := e.ctl.Attach(id, name, true, "watermark:"+name); err != nil {
			return fmt.Errorf("watermark %s/%s: %w", id, name, err)
		}
	}
	return nil
}

// warm reads every pair once through the sidecar, untimed. It fills
// the caches and the disk tier and subscribes every key.
func (e *env) warm() error {
	ops := make([]swarm.Op, len(e.pairs))
	for i, p := range e.pairs {
		ops[i] = swarm.Op{Doc: p.doc, User: p.user}
	}
	res := e.runSlice(ops, 0, false)
	if res.failed > 0 {
		return fmt.Errorf("bench: %d of %d warm-up reads failed: %v", res.failed, len(ops), res.firstErr)
	}
	return nil
}

// setUp is everything between a ready deployment and the timed phase.
func (e *env) setUp() error {
	if err := e.populate(); err != nil {
		return err
	}
	return e.warm()
}

// awaitDemotions waits until the disk tier holds an entry for every
// pair. Demotion is write-behind, so the last installs of the warm-up
// can trail the last read.
func (e *env) awaitDemotions() (int, error) {
	deadline := time.Now().Add(readyTimeout)
	for {
		var st originStatus
		if err := fetchStatus(e.originHTTP, &st); err != nil {
			return 0, err
		}
		if st.Store.Entries >= len(e.pairs) {
			return st.Store.Entries, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: disk tier holds %d of %d entries after warm-up", st.Store.Entries, len(e.pairs))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dirBytes is the on-disk size of a directory tree.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
