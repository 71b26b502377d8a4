package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox is a 2-vCPU virtual machine. A closed loop between three
// processes leaves each vCPU idle for a few microseconds thousands of
// times a second, and every such pause halts the vCPU: waking it goes
// through the hypervisor and costs tens to hundreds of microseconds,
// depending on what the host is doing. Unchecked, that wake-up cost is
// half of every latency the benchmark reports and most of its
// run-to-run spread. So each run keeps one spinner per CPU: a child
// process under SCHED_IDLE, which the kernel runs only when nothing
// else wants the CPU and preempts the moment anything does. The vCPUs
// never halt, and the daemons lose no time to the spinners.
const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spinnerLifetime bounds a spinner whose parent was killed before it
// could stop it and that failed to notice.
const spinnerLifetime = 15 * time.Minute

// idleSpin is the body of a spinner child: `bench -idle-spin`.
func idleSpin() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench: sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(1)
	}
	parent := os.Getppid()
	deadline := time.Now().Add(spinnerLifetime)
	var n atomic.Uint64
	for os.Getppid() == parent && time.Now().Before(deadline) {
		for i := 0; i < 1<<22; i++ {
			n.Add(1)
		}
	}
}

// startSpinners launches one spinner per CPU. A kernel or sandbox that
// refuses SCHED_IDLE leaves the run without them: noisier, not wrong.
func startSpinners(self *cpuSet) []*proc {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: no spinners:", err)
		return nil
	}
	var out []*proc
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		var on cpuSet
		on.add(cpu)
		p, err := startProc("spinner", &on, self, exe, "-idle-spin")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: no spinner:", err)
			break
		}
		out = append(out, p)
	}
	return out
}

func stopSpinners(ps []*proc) {
	for _, p := range ps {
		if p.exited() {
			fmt.Fprint(os.Stderr, p.logs())
		}
		p.kill()
	}
}
