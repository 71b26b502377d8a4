package docspace

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

// fixture bundles a space over an in-memory repository.
type fixture struct {
	clk     *clock.Virtual
	src     *repo.Mem
	archive *repo.DMS
	space   *Space
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	src := repo.NewMem("nfs", clk, simnet.Local(1))
	archive := repo.NewDMS("dms", clk, simnet.NewPath("local", 2))
	return &fixture{clk: clk, src: src, archive: archive, space: New(clk, archive)}
}

// addDoc creates a document backed by the fixture repo with content.
func (f *fixture) addDoc(t *testing.T, id, owner, path string, content []byte) {
	t.Helper()
	f.src.Store(path, content)
	bits := &property.RepoBitProvider{Repo: f.src, Path: path}
	if _, err := f.space.CreateDocument(id, owner, bits); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDocumentAndOwnerReference(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "hotos.doc", "eyal", "/tilde/edelara/hotos.doc", []byte("draft"))
	b, err := f.space.Document("hotos.doc")
	if err != nil || b.ID() != "hotos.doc" || b.Owner() != "eyal" {
		t.Fatalf("Document = %+v, %v", b, err)
	}
	if _, err := f.space.Reference("hotos.doc", "eyal"); err != nil {
		t.Fatalf("owner reference missing: %v", err)
	}
	if b.BitProvider() == nil {
		t.Fatal("bit provider missing")
	}
}

func TestDuplicateDocumentRejected(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	bits := &property.RepoBitProvider{Repo: f.src, Path: "/d"}
	if _, err := f.space.CreateDocument("d", "paul", bits); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddReference(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	if _, err := f.space.AddReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.space.AddReference("d", "paul"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate reference err = %v", err)
	}
	if _, err := f.space.AddReference("nope", "x"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("missing doc err = %v", err)
	}
	users := f.space.Users("d")
	sort.Strings(users)
	if len(users) != 2 || users[0] != "eyal" || users[1] != "paul" {
		t.Fatalf("Users = %v", users)
	}
}

func TestOpenWithoutReferenceFails(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	if _, _, err := f.space.ReadDocument("d", "stranger"); !errors.Is(err, ErrNoReference) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := f.space.ReadDocument("ghost", "eyal"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("err = %v", err)
	}
	if err := f.space.WriteDocument("d", "stranger", []byte("y")); !errors.Is(err, ErrNoReference) {
		t.Fatalf("write err = %v", err)
	}
}

func TestPlainReadReturnsOriginalContent(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("original bits"))
	data, res, err := f.space.ReadDocument("d", "eyal")
	if err != nil || string(data) != "original bits" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if res.Cacheability != property.Unrestricted {
		t.Fatalf("cacheability = %v", res.Cacheability)
	}
	if len(res.Verifiers) != 1 {
		t.Fatalf("verifiers = %d, want bit-provider's mtime verifier", len(res.Verifiers))
	}
	if res.Cost <= 0 {
		t.Fatalf("cost = %v, want positive retrieval cost", res.Cost)
	}
}

func TestPersonalPropertiesInvisibleToOthers(t *testing.T) {
	// Figure 1: Eyal's spelling corrector is personal; Paul sees the
	// uncorrected document.
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("teh draft"))
	f.space.AddReference("d", "paul")
	if err := f.space.Attach("d", "eyal", Personal, property.NewSpellCorrector(0)); err != nil {
		t.Fatal(err)
	}
	eyal, _, _ := f.space.ReadDocument("d", "eyal")
	paul, _, _ := f.space.ReadDocument("d", "paul")
	if string(eyal) != "the draft" {
		t.Fatalf("eyal sees %q", eyal)
	}
	if string(paul) != "teh draft" {
		t.Fatalf("paul sees %q — personal property leaked", paul)
	}
}

func TestUniversalPropertiesSeenByAll(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("shout"))
	f.space.AddReference("d", "paul")
	if err := f.space.Attach("d", "", Universal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"eyal", "paul"} {
		data, _, _ := f.space.ReadDocument("d", u)
		if string(data) != "SHOUT" {
			t.Fatalf("%s sees %q", u, data)
		}
	}
}

func TestReadPathOrderBaseBeforeReference(t *testing.T) {
	// Figure 2: base properties execute before reference properties
	// on the read path. Summarize at base + line-number at ref must
	// number the summarized output.
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("one\ntwo\nthree\n"))
	f.space.Attach("d", "", Universal, property.NewSummarizer(1, 0))
	f.space.Attach("d", "eyal", Personal, property.NewLineNumberer(0))
	data, _, _ := f.space.ReadDocument("d", "eyal")
	got := string(data)
	if !strings.Contains(got, "1  one") || strings.Contains(got, "two") {
		t.Fatalf("read = %q: line numbering should apply to the summary", got)
	}
}

func TestWritePathOrderReferenceBeforeBase(t *testing.T) {
	// On the write path reference properties execute first. A
	// reference rot13 followed by a base uppercase must store
	// uppercase(rot13(x)).
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte(""))
	refProp := &property.Transformer{
		Base:           property.Base{PropName: "ref-suffix"},
		WriteTransform: func(b []byte) []byte { return append(append([]byte{}, b...), []byte("-ref")...) },
	}
	baseProp := &property.Transformer{
		Base:           property.Base{PropName: "base-suffix"},
		WriteTransform: func(b []byte) []byte { return append(append([]byte{}, b...), []byte("-base")...) },
	}
	f.space.Attach("d", "eyal", Personal, refProp)
	f.space.Attach("d", "", Universal, baseProp)
	if err := f.space.WriteDocument("d", "eyal", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fr, _ := f.src.Fetch("/d")
	if string(fr.Data) != "x-ref-base" {
		t.Fatalf("stored %q, want reference transform first", fr.Data)
	}
}

func TestWriteThenReadThroughPlaceless(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("old"))
	if err := f.space.WriteDocument("d", "eyal", []byte("teh new draft")); err != nil {
		t.Fatal(err)
	}
	data, _, _ := f.space.ReadDocument("d", "eyal")
	if string(data) != "teh new draft" {
		t.Fatalf("read-back = %q", data)
	}
}

func TestSpellCorrectorOnWritePathStoresCorrected(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte(""))
	f.space.Attach("d", "eyal", Personal, property.NewSpellCorrector(0))
	f.space.WriteDocument("d", "eyal", []byte("teh recieve"))
	fr, _ := f.src.Fetch("/d")
	if string(fr.Data) != "the receive" {
		t.Fatalf("stored %q", fr.Data)
	}
}

func TestVersioningPropertyOnWrite(t *testing.T) {
	// The paper's universal property that "saves an old version of
	// the paper each time someone opens it for writing".
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("version one"))
	v := property.NewVersioning()
	f.space.Attach("d", "", Universal, v)
	f.space.WriteDocument("d", "eyal", []byte("version two"))
	if v.SavedVersions() != 1 {
		t.Fatalf("SavedVersions = %d", v.SavedVersions())
	}
	// The superseded content is in the archive...
	fr, err := f.archive.Fetch("/archive/d/version-1")
	if err != nil || string(fr.Data) != "version one" {
		t.Fatalf("archived = %q, %v", fr.Data, err)
	}
	// ...and a static link was attached to the base.
	statics, _ := f.space.Statics("d", "", Universal)
	if len(statics) != 1 || statics[0].Key != "version-1" || !strings.Contains(statics[0].Value, "version-1") {
		t.Fatalf("statics = %v", statics)
	}
}

func TestAttachDuplicateActiveRejected(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	f.space.Attach("d", "eyal", Personal, property.NewTranslator(0))
	if err := f.space.Attach("d", "eyal", Personal, property.NewTranslator(0)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestDetachRestoresOriginalView(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("hello"))
	f.space.Attach("d", "eyal", Personal, property.NewUppercaser(0))
	if err := f.space.Detach("d", "eyal", Personal, "uppercase"); err != nil {
		t.Fatal(err)
	}
	data, _, _ := f.space.ReadDocument("d", "eyal")
	if string(data) != "hello" {
		t.Fatalf("after detach read = %q", data)
	}
	if err := f.space.Detach("d", "eyal", Personal, "uppercase"); !errors.Is(err, ErrNoProperty) {
		t.Fatalf("double detach err = %v", err)
	}
}

func TestReplaceSwapsBehaviour(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("the paper"))
	f.space.Attach("d", "eyal", Personal, property.NewTranslator(0))
	// "Upgrade" the translator to an uppercasing release.
	if err := f.space.Replace("d", "eyal", Personal, "translate-fr", property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	data, _, _ := f.space.ReadDocument("d", "eyal")
	if string(data) != "THE PAPER" {
		t.Fatalf("after replace read = %q", data)
	}
	if err := f.space.Replace("d", "eyal", Personal, "ghost", property.NewUppercaser(0)); !errors.Is(err, ErrNoProperty) {
		t.Fatalf("replace missing err = %v", err)
	}
}

func TestReorderChangesContent(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("one\ntwo\nthree\n"))
	f.space.Attach("d", "eyal", Personal, property.NewSummarizer(1, 0))
	f.space.Attach("d", "eyal", Personal, property.NewLineNumberer(0))
	before, _, _ := f.space.ReadDocument("d", "eyal")
	if err := f.space.Reorder("d", "eyal", Personal, []string{"line-number", "summarize-1"}); err != nil {
		t.Fatal(err)
	}
	after, _, _ := f.space.ReadDocument("d", "eyal")
	if string(before) == string(after) {
		t.Fatalf("reorder had no effect: %q", before)
	}
	names, _ := f.space.Actives("d", "eyal", Personal)
	if names[0] != "line-number" {
		t.Fatalf("order = %v", names)
	}
}

func TestReorderValidation(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	f.space.Attach("d", "eyal", Personal, property.NewTranslator(0))
	f.space.Attach("d", "eyal", Personal, property.NewUppercaser(0))
	if err := f.space.Reorder("d", "eyal", Personal, []string{"translate-fr"}); err == nil {
		t.Fatal("short permutation accepted")
	}
	if err := f.space.Reorder("d", "eyal", Personal, []string{"translate-fr", "ghost"}); !errors.Is(err, ErrNoProperty) {
		t.Fatalf("unknown name err = %v", err)
	}
	if err := f.space.Reorder("d", "eyal", Personal, []string{"translate-fr", "translate-fr"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate name err = %v", err)
	}
}

func TestStaticsAttachAndList(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	f.space.AddReference("d", "paul")
	st := property.Static{Key: "1999 workshop submission"}
	if err := f.space.AttachStatic("d", "paul", Personal, st); err != nil {
		t.Fatal(err)
	}
	if err := f.space.AttachStatic("d", "paul", Personal, st); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate static err = %v", err)
	}
	paulStatics, _ := f.space.Statics("d", "paul", Personal)
	if len(paulStatics) != 1 {
		t.Fatalf("paul statics = %v", paulStatics)
	}
	eyalStatics, _ := f.space.Statics("d", "eyal", Personal)
	if len(eyalStatics) != 0 {
		t.Fatal("personal static leaked to another user")
	}
}

func TestReplicatorEndToEnd(t *testing.T) {
	// Eyal's "keep copy at Rice" property: timer-driven replication
	// through the space's virtual clock.
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/parc/hotos.doc", []byte("draft at parc"))
	rice := repo.NewMem("rice", f.clk, simnet.NewPath("wan", 3))
	rep := property.NewReplicator(rice, "/rice/hotos.doc", 24*time.Hour)
	if err := f.space.Attach("d", "eyal", Personal, rep); err != nil {
		t.Fatal(err)
	}
	// Nothing replicated yet.
	if _, err := rice.Fetch("/rice/hotos.doc"); !errors.Is(err, repo.ErrNotFound) {
		t.Fatal("replicated before the timer fired")
	}
	f.clk.Advance(24 * time.Hour)
	fr, err := rice.Fetch("/rice/hotos.doc")
	if err != nil || string(fr.Data) != "draft at parc" {
		t.Fatalf("replica = %q, %v", fr.Data, err)
	}
	// Periodic: content updated, next day's run copies the new bits.
	f.space.WriteDocument("d", "eyal", []byte("draft v2"))
	f.clk.Advance(24 * time.Hour)
	fr, _ = rice.Fetch("/rice/hotos.doc")
	if string(fr.Data) != "draft v2" {
		t.Fatalf("second replica = %q", fr.Data)
	}
	if runs, errs := rep.Runs(); runs != 2 || errs != 0 {
		t.Fatalf("Runs = %d,%d", runs, errs)
	}
}

func TestAuditTrailSeesReadsAndWrites(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	f.space.AddReference("d", "paul")
	trail := property.NewAuditTrail()
	f.space.Attach("d", "", Universal, trail)
	f.space.ReadDocument("d", "eyal")
	f.space.ReadDocument("d", "paul")
	f.space.WriteDocument("d", "eyal", []byte("y"))
	recs := trail.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].User != "eyal" || recs[1].User != "paul" {
		t.Fatalf("recs = %+v", recs)
	}
	if recs[2].Kind != event.GetOutputStream {
		t.Fatalf("write not audited: %+v", recs[2])
	}
}

func TestForwardEventTriggersOnEventOnly(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	trail := property.NewAuditTrail()
	f.space.Attach("d", "", Universal, trail)
	if err := f.space.ForwardEvent("d", "eyal", event.GetInputStream); err != nil {
		t.Fatal(err)
	}
	recs := trail.Records()
	if len(recs) != 1 || !recs[0].Forwarded {
		t.Fatalf("recs = %+v", recs)
	}
	// Forwarding must not touch the repository.
	reqs, _, _ := func() (int64, int64, time.Duration) {
		// fixture path 1 belongs to the source repo
		return 0, 0, 0
	}()
	_ = reqs
	if err := f.space.ForwardEvent("ghost", "eyal", event.GetInputStream); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("err = %v", err)
	}
}

func TestTimerAddressingIsolatesProperties(t *testing.T) {
	// Two replicators on the same reference: each timer firing must
	// run only its owner.
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	r1 := property.NewReplicator(repo.NewMem("a", f.clk, simnet.NewPath("p", 1)), "/a", time.Hour)
	r2 := property.NewReplicator(repo.NewMem("b", f.clk, simnet.NewPath("p", 2)), "/b", 2*time.Hour)
	f.space.Attach("d", "eyal", Personal, r1)
	f.space.Attach("d", "eyal", Personal, r2)
	f.clk.Advance(time.Hour)
	if runs, _ := r1.Runs(); runs != 1 {
		t.Fatalf("r1 runs = %d", runs)
	}
	if runs, _ := r2.Runs(); runs != 0 {
		t.Fatalf("r2 ran on r1's timer: %d", runs)
	}
}

// watcher is an active property that records the events of the given
// kinds dispatched to it, except those about itself.
type watcher struct {
	property.Base
	kinds []event.Kind
	got   []event.Event
}

func newWatcher(kinds ...event.Kind) *watcher {
	return &watcher{Base: property.Base{PropName: "watcher"}, kinds: kinds}
}

func (w *watcher) Events() []event.Kind { return w.kinds }

func (w *watcher) OnEvent(_ *property.EventContext, e event.Event) {
	if e.Property != w.Name() {
		w.got = append(w.got, e)
	}
}

func TestPropertyMutationEventsCarryClass(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	w := newWatcher(event.SetProperty, event.RemoveProperty, event.ModifyProperty)
	f.space.Attach("d", "", Universal, w)

	f.space.Attach("d", "", Universal, property.NewUppercaser(0))
	f.space.AttachStatic("d", "", Universal, property.Static{Key: "label"})
	f.space.Replace("d", "", Universal, "uppercase", property.NewTranslator(0))
	f.space.Detach("d", "", Universal, "translate-fr")

	got := w.got
	if len(got) != 4 {
		t.Fatalf("events = %d, want 4: %+v", len(got), got)
	}
	wantKinds := []event.Kind{event.SetProperty, event.SetProperty, event.ModifyProperty, event.RemoveProperty}
	wantClass := []string{ClassActive, ClassStatic, ClassActive, ClassActive}
	for i, e := range got {
		if e.Kind != wantKinds[i] || e.Detail != wantClass[i] {
			t.Fatalf("event %d = %+v, want kind %v class %s", i, e, wantKinds[i], wantClass[i])
		}
	}
}

func TestSignalExternalChange(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	w := newWatcher(event.ExternalChange)
	f.space.Attach("d", "", Universal, w)
	if err := f.space.SignalExternalChange("d", "quote:XRX"); err != nil {
		t.Fatal(err)
	}
	if got := w.got; len(got) != 1 || got[0].Detail != "quote:XRX" {
		t.Fatalf("got = %+v", got)
	}
	if err := f.space.SignalExternalChange("ghost", ""); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("err = %v", err)
	}
}

func TestDescribe(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	f.space.AddReference("d", "paul")
	f.space.Attach("d", "", Universal, property.NewVersioning())
	f.space.AttachStatic("d", "", Universal, property.Static{Key: "budget related"})
	f.space.Attach("d", "eyal", Personal, property.NewSpellCorrector(0))
	f.space.AttachStatic("d", "paul", Personal, property.Static{Key: "read by", Value: "friday"})

	d, err := f.space.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	if d.Doc != "d" || d.Owner != "eyal" || !strings.Contains(d.BitProvider, "nfs") {
		t.Fatalf("description = %+v", d)
	}
	if len(d.Universal.Actives) != 1 || d.Universal.Actives[0] != "versioning" {
		t.Fatalf("universal actives = %v", d.Universal.Actives)
	}
	if len(d.Universal.Statics) != 1 || d.Universal.Statics[0].Key != "budget related" {
		t.Fatalf("universal statics = %v", d.Universal.Statics)
	}
	if len(d.Users) != 2 || d.Users[0] != "eyal" || d.Users[1] != "paul" {
		t.Fatalf("users = %v", d.Users)
	}
	if got := d.Personal["eyal"].Actives; len(got) != 1 || got[0] != "spell-correct" {
		t.Fatalf("eyal actives = %v", got)
	}
	text := d.String()
	for _, want := range []string{"document d", "versioning", "spell-correct", "read by = friday"} {
		if !strings.Contains(text, want) {
			t.Fatalf("String() missing %q:\n%s", want, text)
		}
	}
	if _, err := f.space.Describe("ghost"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("err = %v", err)
	}
}

func TestLevelString(t *testing.T) {
	if Universal.String() != "universal" || Personal.String() != "personal" {
		t.Fatal("Level.String broken")
	}
}

func TestDocumentsListing(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "a", "u", "/a", []byte("1"))
	f.addDoc(t, "b", "u", "/b", []byte("2"))
	docs := f.space.Documents()
	sort.Strings(docs)
	if len(docs) != 2 || docs[0] != "a" || docs[1] != "b" {
		t.Fatalf("Documents = %v", docs)
	}
}

func TestRemoveReference(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	f.space.AddReference("d", "paul")
	if err := f.space.RemoveReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.space.ReadDocument("d", "paul"); !errors.Is(err, ErrNoReference) {
		t.Fatalf("read after removal: %v", err)
	}
	if err := f.space.RemoveReference("d", "paul"); !errors.Is(err, ErrNoReference) {
		t.Fatalf("double removal: %v", err)
	}
	if err := f.space.RemoveReference("d", "eyal"); err == nil {
		t.Fatal("owner reference removal allowed")
	}
	if err := f.space.RemoveReference("ghost", "x"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("missing doc: %v", err)
	}
}

func TestRemoveDocument(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("keep me in the repo"))
	if err := f.space.RemoveDocument("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.space.Document("d"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("document still visible: %v", err)
	}
	if err := f.space.RemoveDocument("d"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("double removal: %v", err)
	}
	// The repository content is untouched.
	if fr, err := f.src.Fetch("/d"); err != nil || string(fr.Data) != "keep me in the repo" {
		t.Fatalf("repo content lost: %v", err)
	}
}

func TestCompressorUniversalEndToEnd(t *testing.T) {
	// The compressor on the base stores deflate bytes in the
	// repository while every user reads plain content.
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte(""))
	f.space.Attach("d", "", Universal, property.NewCompressor(6, 0))
	plain := []byte(strings.Repeat("placeless placeless placeless ", 50))
	if err := f.space.WriteDocument("d", "eyal", plain); err != nil {
		t.Fatal(err)
	}
	stored, _ := f.src.Fetch("/d")
	if len(stored.Data) >= len(plain) {
		t.Fatalf("repository holds uncompressed bytes: %d", len(stored.Data))
	}
	f.space.AddReference("d", "paul")
	for _, u := range []string{"eyal", "paul"} {
		data, _, err := f.space.ReadDocument("d", u)
		if err != nil || string(data) != string(plain) {
			t.Fatalf("%s read %d bytes, %v", u, len(data), err)
		}
	}
}

func TestConcurrentReadersWithPropertyChurn(t *testing.T) {
	// Readers race against attach/detach/reorder churn; every read
	// must succeed and return a consistent transform of the source
	// (the set of possible outputs is closed under the churned
	// properties).
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("abc"))
	f.space.AddReference("d", "reader")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			up := property.NewUppercaser(0)
			if err := f.space.Attach("d", "reader", Personal, up); err == nil {
				f.space.Detach("d", "reader", Personal, "uppercase")
			}
		}
	}()
	for i := 0; i < 200; i++ {
		data, _, err := f.space.ReadDocument("d", "reader")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if s := string(data); s != "abc" && s != "ABC" {
			t.Fatalf("read %d: unexpected content %q", i, s)
		}
	}
	<-done
}

func TestReadChargesPropertyExecutionTime(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("hello world"))
	f.space.Attach("d", "eyal", Personal, property.NewTranslator(20*time.Millisecond))
	start := f.clk.Now()
	data, res, err := f.space.ReadDocument("d", "eyal")
	if err != nil || string(data) != "bonjour monde" {
		t.Fatalf("read = %q, %v", data, err)
	}
	elapsed := f.clk.Now().Sub(start)
	if elapsed < 20*time.Millisecond {
		t.Fatalf("clock advanced only %v; property execution not charged", elapsed)
	}
	if res.Cost < 20*time.Millisecond {
		t.Fatalf("replacement cost %v missing execution time", res.Cost)
	}
}
