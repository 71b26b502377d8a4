package property

import (
	"errors"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

func TestRepoBitProviderOpenSeedsContext(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	p := simnet.NewPath("lan", 1, simnet.Link{Latency: 5 * time.Millisecond})
	m := repo.NewMem("mem", clk, p)
	m.Store("/doc", []byte("bits"))

	bp := &RepoBitProvider{Repo: m, Path: "/doc"}
	rc := &ReadContext{Now: clk.Now()}
	data, err := bp.Open(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "bits" {
		t.Fatalf("data = %q", data)
	}
	res := rc.Result()
	if res.Cost != 5*time.Millisecond {
		t.Fatalf("cost = %v, want retrieval cost 5ms", res.Cost)
	}
	if len(res.Verifiers) != 1 || !strings.Contains(res.Verifiers[0].Name(), "mtime") {
		t.Fatalf("verifiers = %v, want one mtime verifier", res.Verifiers)
	}
	if res.Cacheability != Unrestricted {
		t.Fatalf("vote = %v", res.Cacheability)
	}
}

func TestRepoBitProviderTTLSource(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	w := repo.NewWeb("web", clk, simnet.NewPath("p", 1), 30*time.Second, true)
	w.SetPage("/page", []byte("<html>"))
	bp := &RepoBitProvider{Repo: w, Path: "/page"}
	rc := &ReadContext{Now: clk.Now()}
	if _, err := bp.Open(rc); err != nil {
		t.Fatal(err)
	}
	vs := rc.Result().Verifiers
	if len(vs) != 1 || vs[0].Name() != "ttl" {
		t.Fatalf("verifiers = %v, want TTL for a web source", vs)
	}
	if ok, _ := vs[0].Check(clk.Now().Add(29 * time.Second)); !ok {
		t.Fatal("TTL verifier rejected fresh entry")
	}
	if ok, _ := vs[0].Check(clk.Now().Add(31 * time.Second)); ok {
		t.Fatal("TTL verifier accepted expired entry")
	}
}

func TestRepoBitProviderUncacheableVote(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	feed := repo.NewLiveFeed("cam", clk, simnet.NewPath("p", 1), 64)
	bp := &RepoBitProvider{Repo: feed, Path: "/cam1", Vote: Uncacheable}
	rc := &ReadContext{Now: clk.Now()}
	if _, err := bp.Open(rc); err != nil {
		t.Fatal(err)
	}
	res := rc.Result()
	if res.Cacheability != Uncacheable {
		t.Fatalf("vote = %v", res.Cacheability)
	}
}

func TestRepoBitProviderOpenNotFound(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	m := repo.NewMem("mem", clk, simnet.NewPath("p", 1))
	bp := &RepoBitProvider{Repo: m, Path: "/missing"}
	if _, err := bp.Open(&ReadContext{}); !errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestRepoBitProviderStore: the stored content is the repository's
// own copy, so the caller may reuse its buffer.
func TestRepoBitProviderStore(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	m := repo.NewMem("mem", clk, simnet.NewPath("p", 1))
	bp := &RepoBitProvider{Repo: m, Path: "/new"}
	data := []byte("written whole")
	if err := bp.Store(&WriteContext{}, data); err != nil {
		t.Fatal(err)
	}
	copy(data, "XXXXXXX")
	fr, err := m.Fetch("/new")
	if err != nil || string(fr.Data) != "written whole" {
		t.Fatalf("stored = %q, %v", fr.Data, err)
	}
}

func TestRepoBitProviderStoreReadOnlyRepo(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	web := repo.NewWeb("web", clk, simnet.NewPath("p", 1), time.Minute, true)
	bp := &RepoBitProvider{Repo: web, Path: "/p"}
	if err := bp.Store(&WriteContext{}, []byte("x")); !errors.Is(err, repo.ErrReadOnly) {
		t.Fatalf("Store err = %v, want ErrReadOnly surfaced", err)
	}
}

func TestRepoBitProviderReadCurrent(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	m := repo.NewMem("mem", clk, simnet.NewPath("p", 1))
	m.Store("/d", []byte("now"))
	bp := &RepoBitProvider{Repo: m, Path: "/d"}
	data, err := bp.ReadCurrent()
	if err != nil || string(data) != "now" {
		t.Fatalf("ReadCurrent = %q, %v", data, err)
	}
}

func TestComposedBitProvider(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	p := simnet.NewPath("lan", 1, simnet.Link{Latency: time.Millisecond})
	m1 := repo.NewMem("s1", clk, p)
	m2 := repo.NewMem("s2", clk, p)
	m1.Store("/a", []byte("headline A"))
	m2.Store("/b", []byte("headline B"))

	c := &ComposedBitProvider{
		ProviderName: "news",
		Parts: []*RepoBitProvider{
			{Repo: m1, Path: "/a"},
			{Repo: m2, Path: "/b"},
		},
		Separator: []byte("\n---\n"),
	}
	rc := &ReadContext{Now: clk.Now()}
	data, err := c.Open(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "headline A\n---\nheadline B" {
		t.Fatalf("composed = %q", data)
	}
	res := rc.Result()
	if res.Cost != 2*time.Millisecond {
		t.Fatalf("cost = %v, want both retrievals", res.Cost)
	}
	if len(res.Verifiers) != 1 || !strings.Contains(res.Verifiers[0].Name(), "composite") {
		t.Fatalf("verifiers = %v, want one composite", res.Verifiers)
	}
	// Composite verifier tracks each source: changing either part
	// invalidates.
	if ok, _ := res.Verifiers[0].Check(clk.Now()); !ok {
		t.Fatal("fresh composite invalid")
	}
	m2.UpdateDirect("/b", []byte("headline B v2"))
	if ok, _ := res.Verifiers[0].Check(clk.Now()); ok {
		t.Fatal("composite missed a changed source")
	}
}

func TestComposedBitProviderReadOnly(t *testing.T) {
	c := &ComposedBitProvider{ProviderName: "news"}
	if err := c.Store(&WriteContext{}, []byte("x")); !errors.Is(err, repo.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestComposedBitProviderPartError(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	m := repo.NewMem("s", clk, simnet.NewPath("p", 1))
	c := &ComposedBitProvider{Parts: []*RepoBitProvider{{Repo: m, Path: "/gone"}}}
	if _, err := c.Open(&ReadContext{}); !errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.ReadCurrent(); err == nil {
		t.Fatal("ReadCurrent swallowed part error")
	}
}
