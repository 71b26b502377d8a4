package docspace

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// writeLog is a write transform that also records, into a log shared
// with its peers, the write-path events it observes and each run of
// its transform, which appends "-<level>" to the content.
type writeLog struct {
	*property.Transformer
	level string
	log   *[]string
}

func newWriteLog(level string, log *[]string) *writeLog {
	return &writeLog{
		Transformer: &property.Transformer{
			Base: property.Base{PropName: "write-log"},
			WriteTransform: func(b []byte) []byte {
				*log = append(*log, "transform "+level)
				return append(bytes.Clone(b), "-"+level...)
			},
		},
		level: level,
		log:   log,
	}
}

func (w *writeLog) Events() []event.Kind {
	return []event.Kind{event.GetOutputStream, event.ContentWritten}
}

func (w *writeLog) OnEvent(_ *property.EventContext, e event.Event) {
	*w.log = append(*w.log, e.Kind.String()+" "+w.level)
}

// TestWritePathOrderAndRefusals pins the write path's order: every
// getOutputStream event, then the reference's transforms, then the
// base's, then the store, then contentWritten on the base — which a
// store that fails after the transforms ran still dispatches. A
// document with nowhere to store (a composition of sources) refuses
// the write before any property sees it.
func TestWritePathOrderAndRefusals(t *testing.T) {
	f := newFixture(t)
	var log []string
	attachLogs := func(doc string) {
		t.Helper()
		if err := f.space.Attach(doc, "", Universal, newWriteLog("universal", &log)); err != nil {
			t.Fatal(err)
		}
		if err := f.space.Attach(doc, "eyal", Personal, newWriteLog("personal", &log)); err != nil {
			t.Fatal(err)
		}
	}
	want := fmt.Sprint([]string{
		"getOutputStream personal", "getOutputStream universal",
		"transform personal", "transform universal",
		"contentWritten universal",
	})

	f.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	attachLogs("d")
	if err := f.space.WriteDocument("d", "eyal", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("write to a writable store ran %s, want %s", got, want)
	}
	if fr, _ := f.src.Fetch("/d"); string(fr.Data) != "v2-personal-universal" {
		t.Fatalf("stored %q, want the reference's transform applied before the base's", fr.Data)
	}

	log = nil
	web := repo.NewWeb("web", f.clk, simnet.Local(1), time.Minute, true)
	if _, err := f.space.CreateDocument("page", "eyal", &property.RepoBitProvider{Repo: web, Path: "/page"}); err != nil {
		t.Fatal(err)
	}
	attachLogs("page")
	if err := f.space.WriteDocument("page", "eyal", []byte("put")); !errors.Is(err, repo.ErrReadOnly) {
		t.Fatalf("write to a read-only web page: err = %v, want ErrReadOnly", err)
	}
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("write whose store failed ran %s, want %s", got, want)
	}

	log = nil
	f.src.Store("/feed", []byte("headline"))
	composed := &property.ComposedBitProvider{
		ProviderName: "news",
		Parts:        []*property.RepoBitProvider{{Repo: f.src, Path: "/feed"}},
	}
	if _, err := f.space.CreateDocument("news", "eyal", composed); err != nil {
		t.Fatal(err)
	}
	attachLogs("news")
	if err := f.space.WriteDocument("news", "eyal", []byte("put")); !errors.Is(err, repo.ErrReadOnly) {
		t.Fatalf("write to a composed document: err = %v, want ErrReadOnly", err)
	}
	if len(log) != 0 {
		t.Fatalf("a refused write reached its properties: %v", log)
	}
}
