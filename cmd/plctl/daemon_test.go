package main

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"placeless/internal/server"
)

// freeAddr reserves a loopback port and releases it for a daemon to
// bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// daemon is one built-and-started daemon process.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
}

// startDaemon builds ../<name> into dir and starts it with args. The
// process is killed at test end if the test did not stop it itself.
func startDaemon(t *testing.T, dir, name string, args ...string) *daemon {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "../"+name).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	d := &daemon{name: name, cmd: exec.Command(bin, args...)}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.cmd.Process.Kill() }) // already-exited is the only failure
	return d
}

// terminate sends SIGTERM and requires the graceful path: the shutdown
// banner on stderr and exit status 0. An untrapped SIGTERM kills the
// process with a signal status instead, skipping every closer.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s after SIGTERM: %v, want exit 0\nstderr: %s", d.name, err, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after SIGTERM", d.name)
	}
	if want := d.name + ": shutting down"; !strings.Contains(d.stderr.String(), want) {
		t.Fatalf("%s stderr = %q, want the %q banner", d.name, d.stderr.String(), want)
	}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("%s: not within 30s", what)
}

// TestDaemonsExitCleanlyOnSIGTERM: kill, a systemd stop and a container
// stop all deliver SIGTERM, so both daemons must take the same graceful
// path for it as for an interrupt — closers, the journal Close and
// srv.Close() included.
func TestDaemonsExitCleanlyOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	dir := t.TempDir()
	wire, front := freeAddr(t), freeAddr(t)

	origin := startDaemon(t, dir, "placelessd", "-cache", "1048576",
		"-store", filepath.Join(dir, "store"), "-journal", filepath.Join(dir, "journal"), "-addr", wire)
	eventually(t, "placelessd accepting", func() bool {
		c, err := server.Dial(wire, server.WithDialTimeout(time.Second))
		if err != nil {
			return false
		}
		defer c.Close()
		return c.CreateDocument("notes", "alice", []byte("draft")) == nil
	})

	sidecar := startDaemon(t, dir, "plcached", "-server", wire, "-addr", front)
	eventually(t, "plcached serving", func() bool {
		resp, err := http.Get("http://" + front + "/doc/notes?user=alice")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	sidecar.terminate(t)
	origin.terminate(t)
}
