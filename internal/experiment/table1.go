package experiment

import (
	"time"
)

// Table1Row is one source row of the paper's Table 1: document content
// access times in milliseconds for an application-level cache.
type Table1Row struct {
	// Source names the original repository (parcweb, www.gatech.edu,
	// local file system).
	Source string
	// Size is the document size in bytes (the paper's three sizes:
	// 1915, 10883, 1104).
	Size int64
	// NoCache is the access time with no cache interposed.
	NoCache time.Duration
	// Miss is the access time on a cold cache (read path plus the
	// overhead of creating the minimum notifier set and receiving
	// the verifier).
	Miss time.Duration
	// Hit is the access time served from the cache, including
	// verifier execution.
	Hit time.Duration
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r Table1Result) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Source,
			fmtBytes(row.Size),
			fmtMS(row.NoCache),
			fmtMS(row.Miss),
			fmtMS(row.Hit),
		})
	}
	return []string{"Original Source", "size (bytes)", "no cache (ms)", "cache miss (ms)", "cache hit (ms)"}, rows
}

func fmtBytes(n int64) string { return fmtInt(n) }

func fmtInt(n int64) string {
	// Render with thousands separator the way the paper prints
	// "10,883 bytes".
	s := ""
	neg := n < 0
	if neg {
		n = -n
	}
	for n >= 1000 {
		s = "," + pad3(n%1000) + s
		n /= 1000
	}
	s = itoa(n) + s
	if neg {
		s = "-" + s
	}
	return s
}

func pad3(n int64) string {
	d := itoa(n)
	for len(d) < 3 {
		d = "0" + d
	}
	return d
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// table1Source describes one Table 1 document.
type table1Source struct {
	id     string
	label  string
	size   int64
	create func(w *World, id string, content []byte) error
}

// table1Sources are the paper's three documents: a page on the campus
// web server (1915 bytes), a page on www.gatech.edu (10,883 bytes),
// and a local file (1104 bytes).
func table1Sources() []table1Source {
	return []table1Source{
		{
			id: "parcweb-page", label: "parcweb", size: 1915,
			create: func(w *World, id string, content []byte) error {
				return w.AddWebDoc(w.LAN, id, "eyal", content)
			},
		},
		{
			id: "gatech-page", label: "www.gatech.edu", size: 10883,
			create: func(w *World, id string, content []byte) error {
				return w.AddWebDoc(w.WAN, id, "eyal", content)
			},
		},
		{
			id: "local-file", label: "local file", size: 1104,
			create: func(w *World, id string, content []byte) error {
				return w.AddLocalDoc(id, "eyal", content)
			},
		},
	}
}

// RunTable1 regenerates Table 1: for each of the three sources it
// measures the no-cache access time, the cold-cache miss time, and the
// warm-cache hit time. As in the paper, no active properties are
// attached, so the miss overhead is exactly the cost of installing the
// minimal notifier set and returning one verifier, and the hit cost
// includes executing that verifier. iters accesses are averaged per
// cell.
func RunTable1(seed int64, iters int) (Table1Result, error) {
	if iters < 1 {
		iters = 1
	}
	var res Table1Result
	for _, src := range table1Sources() {
		content := Content(src.id, src.size)

		// No cache: fresh world, read straight through the space.
		w := NewWorld(seed, DefaultCacheOptions())
		if err := src.create(w, src.id, content); err != nil {
			return res, err
		}
		var noCache time.Duration
		for i := 0; i < iters; i++ {
			d := w.Timed(func() {
				if _, _, err := w.Space.ReadDocument(src.id, "eyal"); err != nil {
					panic(err)
				}
			})
			noCache += d
		}
		noCache /= time.Duration(iters)

		// Cache miss: fresh cache per iteration (invalidate between
		// rounds to force the full path).
		w2 := NewWorld(seed, DefaultCacheOptions())
		if err := src.create(w2, src.id, content); err != nil {
			return res, err
		}
		var miss time.Duration
		for i := 0; i < iters; i++ {
			w2.Cache.Invalidate(src.id, "eyal")
			d := w2.Timed(func() {
				if _, err := w2.Cache.Read(src.id, "eyal"); err != nil {
					panic(err)
				}
			})
			miss += d
		}
		miss /= time.Duration(iters)

		// Cache hit: warmed cache, repeated reads (within the TTL for
		// web sources).
		if _, err := w2.Cache.Read(src.id, "eyal"); err != nil {
			return res, err
		}
		var hit time.Duration
		for i := 0; i < iters; i++ {
			d := w2.Timed(func() {
				if _, err := w2.Cache.Read(src.id, "eyal"); err != nil {
					panic(err)
				}
			})
			hit += d
		}
		hit /= time.Duration(iters)

		res.Rows = append(res.Rows, Table1Row{
			Source: src.label, Size: src.size,
			NoCache: noCache, Miss: miss, Hit: hit,
		})
	}
	return res, nil
}
