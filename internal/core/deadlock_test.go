package core

import (
	"testing"
	"time"
)

// TestTimerWriteDuringMissFillDoesNotDeadlock provokes the
// write-during-invalidate schedule on the virtual clock:
//
//  1. a read of d installs the cache's base notifier on d,
//  2. a clock timer is armed to write d through the space,
//  3. a miss on d2 sleeps FillCost on the virtual clock; the timer
//     (due before FillCost ends) fires synchronously on the sleeping
//     goroutine, so WriteDocument(d) → contentWritten → base notifier
//     → invalidateDoc(d) all run nested inside the miss that is
//     mid-fill.
//
// A cache that sleeps while holding the lock the notifier needs
// self-deadlocks here (the seed implementation did exactly that). The
// fix keeps every lock released across clock sleeps and docspace
// calls; this test pins that, failing by timeout if the schedule ever
// wedges again.
func TestTimerWriteDuringMissFillDoesNotDeadlock(t *testing.T) {
	w := newWorld(t, Options{FillCost: 50 * time.Millisecond})
	w.addDoc(t, "d", "eyal", "/d", []byte("original"))
	w.addDoc(t, "d2", "eyal", "/d2", []byte("other"))

	done := make(chan error, 1)
	var fired, nested bool
	go func() {
		// Install the base notifier on d.
		if _, err := w.cache.Read("d", "eyal"); err != nil {
			done <- err
			return
		}
		var inMiss bool
		var werr error
		w.clk.AfterFunc(10*time.Millisecond, func(time.Time) {
			fired, nested = true, inMiss
			werr = w.space.WriteDocument("d", "eyal", []byte("updated"))
		})
		// Miss on d2: the FillCost sleep advances the virtual clock
		// past the timer's deadline, firing the write (and the nested
		// invalidation of d) on this very goroutine.
		inMiss = true
		_, err := w.cache.Read("d2", "eyal")
		inMiss = false
		if err == nil {
			err = werr
		}
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: a write fired during a miss fill never completed")
	}

	if !fired || !nested {
		t.Fatalf("timer fired = %v, inside the d2 miss = %v; want both", fired, nested)
	}
	if st := w.cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("the nested write invalidated nothing: %+v", st)
	}
	if !w.cache.Contains("d2", "eyal") {
		t.Fatal("the d2 miss did not install its entry")
	}
	// The written content must be what a fresh read observes.
	if data := w.read(t, "d", "eyal"); string(data) != "updated" {
		t.Fatalf("post-write read = %q, want %q", data, "updated")
	}
}
