package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/stream"
)

// probeHook is a personal property that touches no bytes and hands the
// cache a verifier the test controls: itself.
type probeHook struct {
	property.Base
	check func() bool // nil means valid
}

func (p *probeHook) WrapInput(rc *property.ReadContext) stream.Transform {
	rc.AddVerifier(p)
	return nil
}

func (p *probeHook) Check(time.Time) (bool, error) {
	return p.check == nil || p.check(), nil
}

// TestHitProbeParity drives the two callers of the hit probe through
// the same scenarios — ReadSharedHit with the ReadWithInfo fallback the
// wire server pairs it with, and ReadWithInfo alone — and requires the
// same bytes, the same EntryInfo (the shared probe additionally stamps
// the blob CRC) and the same Stats movement from both.
func TestHitProbeParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		audit bool
		// arm runs after the warm-up read, before the measured one.
		arm func(w *world, hook *probeHook)
		// shared reports whether ReadSharedHit itself serves the read.
		shared  bool
		wantErr error
		want    Stats // expected movement of the counters named below
	}{
		{name: "warm hit", shared: true, want: Stats{Hits: 1}},
		{
			name: "verifier rejects",
			arm: func(_ *world, hook *probeHook) {
				hook.check = func() bool { return false }
			},
			want: Stats{VerifierRejects: 1, Misses: 1},
		},
		{
			name: "invalidated between verify and re-check",
			arm: func(w *world, hook *probeHook) {
				hook.check = func() bool {
					hook.check = nil
					w.cache.Invalidate("d", "eyal")
					return true
				}
			},
			want: Stats{Invalidations: 1, Misses: 1},
		},
		{name: "cache with events", audit: true, shared: true, want: Stats{Hits: 1, EventsForwarded: 1}},
		{name: "hit cost charged", opts: Options{HitCost: time.Millisecond}, want: Stats{Hits: 1}},
		{
			name: "closed",
			arm: func(w *world, _ *probeHook) {
				w.cache.Close()
			},
			wantErr: ErrClosed,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				data      []byte
				info      EntryInfo
				err       error
				delta     Stats
				forwarded int
				resident  bool
			}
			run := func(viaShared bool) outcome {
				w := newWorld(t, tc.opts)
				w.addDoc(t, "d", "eyal", "/d", []byte("probed content"))
				hook := &probeHook{Base: property.Base{PropName: "probe-hook"}}
				if err := w.space.Attach("d", "eyal", docspace.Personal, hook); err != nil {
					t.Fatal(err)
				}
				trail := property.NewAuditTrail()
				if tc.audit {
					if err := w.space.Attach("d", "", docspace.Universal, trail); err != nil {
						t.Fatal(err)
					}
				}
				w.read(t, "d", "eyal") // warm
				if tc.arm != nil {
					tc.arm(w, hook)
				}
				before := w.cache.Stats()

				var o outcome
				served := false
				if viaShared {
					var body stream.Body
					body, o.info, served = w.cache.ReadSharedHit("d", "eyal")
					o.data = body.Bytes()
					if served != tc.shared {
						t.Fatalf("ReadSharedHit ok = %v, want %v", served, tc.shared)
					}
					if after := w.cache.Stats(); !served && (after.Hits != before.Hits || after.VerifierRejects != before.VerifierRejects || after.EventsForwarded != before.EventsForwarded) {
						t.Errorf("declined probe accounted for itself: %+v -> %+v", before, after)
					}
				}
				if !served {
					o.data, o.info, o.err = readBytes(w.cache, "d", "eyal")
				}

				after := w.cache.Stats()
				o.delta = Stats{
					Hits:            after.Hits - before.Hits,
					Misses:          after.Misses - before.Misses,
					CoalescedMisses: after.CoalescedMisses - before.CoalescedMisses,
					VerifierRejects: after.VerifierRejects - before.VerifierRejects,
					Notifications:   after.Notifications - before.Notifications,
					Invalidations:   after.Invalidations - before.Invalidations,
					Evictions:       after.Evictions - before.Evictions,
					EventsForwarded: after.EventsForwarded - before.EventsForwarded,
					BytesStored:     after.BytesStored - before.BytesStored,
					BytesLogical:    after.BytesLogical - before.BytesLogical,
				}
				for _, r := range trail.Records() {
					if r.Forwarded {
						o.forwarded++
					}
				}
				o.resident = w.cache.Contains("d", "eyal")
				return o
			}

			shared, full := run(true), run(false)
			if !errors.Is(shared.err, tc.wantErr) || !errors.Is(full.err, tc.wantErr) {
				t.Fatalf("errors = %v / %v, want %v", shared.err, full.err, tc.wantErr)
			}
			if !bytes.Equal(shared.data, full.data) {
				t.Errorf("bytes differ: %q vs %q", shared.data, full.data)
			}
			if tc.wantErr == nil && string(full.data) != "probed content" {
				t.Errorf("read %q", full.data)
			}
			if shared.info != full.info {
				t.Errorf("EntryInfo differs:\n shared+fallback %+v\n full            %+v", shared.info, full.info)
			}
			if shared.delta != full.delta {
				t.Errorf("Stats movement differs:\n shared+fallback %+v\n full            %+v", shared.delta, full.delta)
			}
			if full.delta != tc.want {
				t.Errorf("Stats movement = %+v, want %+v", full.delta, tc.want)
			}
			if shared.forwarded != full.forwarded || int64(full.forwarded) != tc.want.EventsForwarded {
				t.Errorf("forwarded events = %d / %d, want %d", shared.forwarded, full.forwarded, tc.want.EventsForwarded)
			}
			if shared.resident != full.resident || full.resident != (tc.wantErr == nil) {
				t.Errorf("entry resident = %v / %v", shared.resident, full.resident)
			}
		})
	}
}
