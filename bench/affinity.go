package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Every process of a run has a home: the load generator keeps CPU 0,
// the sidecar gets the upper half of the CPUs and the origin the lower
// half. On the 2-core sandbox that is the sidecar, which every op
// passes through, alone on CPU 1, and the origin sharing CPU 0 with the
// generator, which in a closed loop is mostly waiting while the origin
// works. Left to itself the kernel moves five busy threads between two
// CPUs as it likes, and on hot_small the run-to-run spread of every
// timing was three times what it is with fixed homes.
type placement struct {
	generator, sidecar, origin *cpuSet
}

func placeByHalves(ncpu int) placement {
	p := placement{&cpuSet{}, &cpuSet{}, &cpuSet{}}
	p.generator.add(0)
	half := ncpu / 2
	for cpu := 0; cpu < ncpu; cpu++ {
		if cpu >= half {
			p.sidecar.add(cpu)
		}
		if cpu < half || ncpu == 1 {
			p.origin.add(cpu)
		}
	}
	return p
}

type cpuSet [16]uint64 // 1024 CPUs, the kernel's default mask size

func (s *cpuSet) add(cpu int) { s[cpu/64] |= 1 << (cpu % 64) }

func setAffinity(tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinSelf moves every thread of this process onto s. Threads the
// runtime starts later inherit the mask from the thread that creates
// them.
func pinSelf(s *cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, s); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}

// startOn runs start, which forks a child, on a thread whose mask is
// child, so that the child and every thread it makes stay there; the
// thread then returns to self.
func startOn(child, self *cpuSet, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, child); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := start()
	if back := setAffinity(0, self); back != nil && err == nil {
		err = fmt.Errorf("sched_setaffinity: %w", back)
	}
	return err
}
