package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"placeless/internal/server"
)

// readyTimeout bounds every readiness poll; a daemon that is not up by
// then is reported with its captured output. It is long because the
// sandbox's disk (ext4 mounted with discard) now and then stalls every
// file operation for tens of seconds after a run's files are deleted;
// one restart in about five hundred sat out 20 s before its first line
// of output.
const readyTimeout = 60 * time.Second

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// findRoot walks up from the working directory to the repository root,
// recognised by the daemon sources the benchmark builds.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "placelessd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no cmd/placelessd above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDaemons compiles the two daemons into <root>/.bench_build/bin.
// It names the two packages and never ./..., because cmd/plctl does
// not compile (ROADMAP item 0).
func buildDaemons(root string) (binDir string, err error) {
	binDir = filepath.Join(root, buildDirName, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/placelessd", "./cmd/plcached")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: build daemons: %v\n%s", err, out)
	}
	return binDir, nil
}

// procs tracks every live child and scratch directory. Returns and
// errors release them through defers; a signal has to do it here.
var procs struct {
	mu      sync.Mutex
	live    map[*proc]bool
	scratch map[string]bool
}

// cleanUpOnSignal kills every child and removes every scratch
// directory when the benchmark is interrupted.
func cleanUpOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigc
		procs.mu.Lock()
		var ps []*proc
		for p := range procs.live {
			ps = append(ps, p)
		}
		var dirs []string
		for d := range procs.scratch {
			dirs = append(dirs, d)
		}
		procs.mu.Unlock()
		for _, p := range ps {
			p.kill()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
		os.Exit(130)
	}()
}

// scratchDir creates a directory under parent that a signal removes
// too. The caller removes it with dropScratch.
func scratchDir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	procs.mu.Lock()
	if procs.scratch == nil {
		procs.scratch = make(map[string]bool)
	}
	procs.scratch[dir] = true
	procs.mu.Unlock()
	return dir, nil
}

func dropScratch(dir string) {
	os.RemoveAll(dir)
	procs.mu.Lock()
	delete(procs.scratch, dir)
	procs.mu.Unlock()
}

// proc is one daemon child with its output captured.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *lockedBuffer
	done chan struct{}
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startProc launches a child. A non-nil home confines it to those CPUs;
// self is where the calling thread returns to (see affinity.go).
func startProc(name string, home, self *cpuSet, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), out: &lockedBuffer{}, done: make(chan struct{})}
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	start := p.cmd.Start
	if home != nil {
		start = func() error { return startOn(home, self, p.cmd.Start) }
	}
	if err := start(); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*proc]bool)
	}
	procs.live[p] = true
	procs.mu.Unlock()
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed daemon carries nothing
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill sends SIGKILL and waits until the child has been reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is the only failure
	<-p.done
	procs.mu.Lock()
	delete(procs.live, p)
	procs.mu.Unlock()
}

// stacks asks a hung Go child for its goroutine stacks (SIGQUIT), which
// land in its captured output. The child exits as a result.
func (p *proc) stacks() {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGQUIT) // already-exited is the only failure
	select {
	case <-p.done:
	case <-time.After(2 * time.Second):
	}
}

// logs renders the captured output for a failure report.
func (p *proc) logs() string {
	return fmt.Sprintf("---- %s (pid %d) output ----\n%s", p.name, p.pid(), p.out.String())
}

// freePorts reserves n distinct loopback ports by binding and
// releasing them. The daemons take their listen address as a flag and
// do not report a kernel-chosen one, so :0 cannot be passed through.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// waitHTTP polls url until it answers 200, the child exits, or the
// deadline passes.
func waitHTTP(p *proc, url string) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("bench: %s exited before serving %s\n%s", p.name, url, p.logs())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s never served %s\n%s", p.name, url, p.logs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitWire polls the origin's TCP port with a wire Stats call until it
// answers, and returns the connected client.
func waitWire(p *proc, addr string) (*server.Client, error) {
	deadline := time.Now().Add(readyTimeout)
	for {
		c, err := server.Dial(addr, server.WithCallTimeout(10*time.Second))
		if err == nil {
			if _, err = c.Stats(); err == nil {
				return c, nil
			}
			c.Close()
		}
		if p.exited() {
			return nil, fmt.Errorf("bench: %s exited before accepting on %s\n%s", p.name, addr, p.logs())
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: %s never accepted on %s: %v\n%s", p.name, addr, err, p.logs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procSample is one reading of a child's /proc entries.
type procSample struct {
	cpuMS      float64 // user + system CPU so far
	peakRSSMB  float64 // VmHWM
	writeBytes float64 // bytes handed to the storage layer
}

// add folds another incarnation's reading into s: CPU and bytes sum,
// the memory peak is the larger.
func (s *procSample) add(o procSample) {
	s.cpuMS += o.cpuMS
	s.writeBytes += o.writeBytes
	s.peakRSSMB = max(s.peakRSSMB, o.peakRSSMB)
}

func sampleProc(pid int) (procSample, error) {
	var s procSample
	base := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return s, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// are counted from the closing parenthesis. utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("bench: short %s/stat", base)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	s.cpuMS = (utime + stime) * 1000 / clockTick

	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return s, err
	}
	s.peakRSSMB = procField(status, "VmHWM:") / 1024
	// /proc/<pid>/io can be unreadable under a restrictive ptrace
	// scope; the one metric it feeds then reads 0.
	if io, err := os.ReadFile(base + "/io"); err == nil {
		s.writeBytes = procField(io, "write_bytes:")
	}
	return s, nil
}

// procField returns the number following key in a /proc key-value
// file, or 0.
func procField(data []byte, key string) float64 {
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// selfCPUms is the benchmark process's own user + system CPU.
func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}
