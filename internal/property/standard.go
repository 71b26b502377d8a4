package property

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"placeless/internal/event"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// Transformer is an active property that rewrites content on the read
// path, the write path, or both — the paper's "translate to French",
// "summary", and "spell correct" class of property. Each execution
// charges ExecCost of simulated time and contributes it to the
// entry's replacement cost.
type Transformer struct {
	Base
	// ReadTransform rewrites content flowing to the application; nil
	// leaves the read path alone.
	ReadTransform stream.Transform
	// WriteTransform rewrites content flowing to storage; nil leaves
	// the write path alone.
	WriteTransform stream.Transform
	// ExecCost is the simulated execution time per invocation.
	ExecCost time.Duration
	// CacheVote is this property's read-path cacheability vote (zero value
	// Unrestricted).
	CacheVote Cacheability
	// Version models the property's release; upgrading it triggers
	// modifyProperty-based invalidation (paper §3: "If Eyal were to
	// upgrade his spelling corrector to a new release, this would
	// trigger an invalidation").
	Version int
	// MemoID, when non-empty, declares ReadTransform memoizable: a
	// pure function of the input bytes whose behaviour is fully
	// captured by (PropName, Version, MemoID). Constructors derive it
	// from the configuration that shapes output bytes (dictionary
	// digests, line counts, banners). Leave empty for transforms
	// whose output depends on anything beyond the input — the cache
	// then re-executes the stage on every read (paper cause 4).
	MemoID string
}

var (
	_ Active     = (*Transformer)(nil)
	_ Memoizable = (*Transformer)(nil)
)

// MemoKey implements Memoizable. ExecCost is deliberately excluded:
// it shapes replacement cost, not output bytes.
func (t *Transformer) MemoKey() (string, bool) {
	if t.MemoID == "" {
		return "", false
	}
	return t.PropName + "/v" + strconv.Itoa(t.Version) + "/" + t.MemoID, true
}

// tableDigest summarizes a word-replacement table for memo keys:
// digests every (word, replacement) pair in sorted order, so two
// properties share a key exactly when their dictionaries match.
func tableDigest(table map[string]string) string {
	var enc []byte
	for _, w := range SortedWords(table) {
		enc = fmt.Appendf(enc, "%s\x00%s\x00", w, table[w])
	}
	return sig.Of(enc).String()
}

// Events implements Active.
func (t *Transformer) Events() []event.Kind {
	var ks []event.Kind
	if t.ReadTransform != nil {
		ks = append(ks, event.GetInputStream)
	}
	if t.WriteTransform != nil {
		ks = append(ks, event.GetOutputStream)
	}
	return ks
}

// WrapInput implements Active: charges execution cost and applies the
// read transform.
func (t *Transformer) WrapInput(ctx *ReadContext) stream.Transform {
	if t.ReadTransform == nil {
		return nil
	}
	ctx.Vote(t.CacheVote)
	ctx.AddCost(t.ExecCost)
	f, cost, sleep := t.ReadTransform, t.ExecCost, ctx.Sleep
	return func(b []byte) []byte {
		if sleep != nil && cost > 0 {
			sleep(cost)
		}
		return f(b)
	}
}

// WrapOutput implements Active: charges execution cost and applies the
// write transform.
func (t *Transformer) WrapOutput(ctx *WriteContext) stream.Transform {
	if t.WriteTransform == nil {
		return nil
	}
	f, cost, sleep := t.WriteTransform, t.ExecCost, ctx.Sleep
	return func(b []byte) []byte {
		if sleep != nil && cost > 0 {
			sleep(cost)
		}
		return f(b)
	}
}

// wordMap rewrites whole words — maximal runs of ASCII letters —
// according to a replacement table, preserving every other byte. A
// word matches a table word with ASCII case folding; a capitalized
// word gets its replacement with the first rune upper-cased.
//
// The table is read once, here: the transform keeps a snapshot, so it
// goes on producing the bytes its memo key (tableDigest, taken at the
// same construction) names, whatever later happens to the map.
func wordMap(table map[string]string) stream.Transform {
	return newWordTable(table).apply
}

// wordTable is a replacement table snapshotted for wordMap: the
// entries a word can match, grouped by word length, and the bound on
// how much they lengthen a text.
type wordTable struct {
	byLen [][]wordEntry // byLen[n]: the entries whose word is n bytes long
	// A word of n bytes and the separator after it lengthen the text by
	// at most grow bytes in per (grow/per is the largest such ratio).
	grow, per int
}

// wordEntry is one replacement: word is lower-case ASCII letters,
// upper the replacement with its first rune upper-cased.
type wordEntry struct {
	word, repl, upper string
}

// newWordTable snapshots table.
func newWordTable(table map[string]string) *wordTable {
	t := &wordTable{per: 1}
	for w, repl := range table {
		if !lowerWord(w) {
			continue // a letter run folds to lower case, so it never equals w
		}
		if len(w) >= len(t.byLen) {
			t.byLen = append(t.byLen, make([][]wordEntry, len(w)+1-len(t.byLen))...)
		}
		e := wordEntry{word: w, repl: repl, upper: upperFirst(repl)}
		t.byLen[len(w)] = append(t.byLen[len(w)], e)
		if g := max(len(e.repl), len(e.upper)) - len(w); g*t.per > t.grow*(len(w)+1) {
			t.grow, t.per = g, len(w)+1
		}
	}
	return t
}

// lowerWord reports whether w is a non-empty run of lower-case ASCII
// letters.
func lowerWord(w string) bool {
	for i := 0; i < len(w); i++ {
		if w[i] < 'a' || w[i] > 'z' {
			return false
		}
	}
	return w != ""
}

// upperFirst upper-cases the first rune of s. A string that does not
// start with a valid rune is left as it is.
func upperFirst(s string) string {
	r, n := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && n <= 1 {
		return s
	}
	return string(unicode.ToUpper(r)) + s[n:]
}

// isLetter reports whether c is an ASCII letter.
func isLetter(c byte) bool { return (c|0x20)-'a' < 26 }

// wordScratch keeps apply's buffers between calls, one per processor
// (a transform is CPU-bound); one past scratchMax bytes is dropped.
var wordScratch = make(chan []byte, runtime.GOMAXPROCS(0))

const scratchMax = 1 << 20

// apply is the transform: one pass over b into a scratch buffer sized
// for the longest text the table can make of it, then one exact-size
// copy, which a cache can keep as its blob without pinning spare bytes.
func (t *wordTable) apply(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	var out []byte
	select {
	case out = <-wordScratch:
	default:
	}
	if worst := len(b) + ((len(b)+1)*t.grow+t.per-1)/t.per; cap(out) < worst {
		out = make([]byte, 0, worst)
	}
	for i := 0; i < len(b); {
		if !isLetter(b[i]) {
			out = append(out, b[i])
			i++
			continue
		}
		j := i + 1
		for j < len(b) && isLetter(b[j]) {
			j++
		}
		out = t.appendWord(out, b[i:j])
		i = j
	}
	res := make([]byte, len(out))
	copy(res, out)
	if cap(out) <= scratchMax {
		select {
		case wordScratch <- out[:0]:
		default:
		}
	}
	return res
}

// appendWord appends w's replacement to out, or w itself when the
// table has none.
func (t *wordTable) appendWord(out, w []byte) []byte {
	if len(w) < len(t.byLen) {
		entries := t.byLen[len(w)]
	next:
		for x := range entries {
			e := &entries[x]
			for k, c := range w {
				if c|0x20 != e.word[k] {
					continue next
				}
			}
			if w[0] <= 'Z' { // w is letters: an upper-case one
				return append(out, e.upper...)
			}
			return append(out, e.repl...)
		}
	}
	return append(out, w...)
}

// DefaultMisspellings is the demonstration dictionary used by
// NewSpellCorrector.
var DefaultMisspellings = map[string]string{
	"teh":        "the",
	"recieve":    "receive",
	"occured":    "occurred",
	"seperate":   "separate",
	"definately": "definitely",
	"adress":     "address",
	"documnet":   "document",
	"cachable":   "cacheable",
}

// NewSpellCorrector returns the paper's spelling-corrector property:
// it fixes known misspellings on both the read and write paths (the
// example registers it for getInputStream and getOutputStream).
func NewSpellCorrector(cost time.Duration) *Transformer {
	f := wordMap(DefaultMisspellings)
	return &Transformer{
		Base:           Base{PropName: "spell-correct"},
		ReadTransform:  f,
		WriteTransform: f,
		ExecCost:       cost,
		Version:        1,
		MemoID:         "dict:" + tableDigest(DefaultMisspellings),
	}
}

// DefaultFrench is the demonstration English→French dictionary used by
// NewTranslator.
var DefaultFrench = map[string]string{
	"the":      "le",
	"a":        "un",
	"document": "document",
	"cache":    "cache",
	"paper":    "papier",
	"hello":    "bonjour",
	"world":    "monde",
	"is":       "est",
	"and":      "et",
	"of":       "de",
	"workshop": "atelier",
	"property": "propriété",
	"active":   "actif",
	"caching":  "mise-en-cache",
	"with":     "avec",
	"system":   "système",
}

// NewTranslator returns the paper's "translate to French" property: a
// read-path word-substitution translation.
func NewTranslator(cost time.Duration) *Transformer {
	return &Transformer{
		Base:          Base{PropName: "translate-fr"},
		ReadTransform: wordMap(DefaultFrench),
		ExecCost:      cost,
		Version:       1,
		MemoID:        "dict:" + tableDigest(DefaultFrench),
	}
}

// NewSummarizer returns the paper's "summary" property: the read path
// yields only the first n lines of the document plus an elision
// marker.
func NewSummarizer(n int, cost time.Duration) *Transformer {
	if n < 1 {
		n = 1
	}
	return &Transformer{
		Base: Base{PropName: fmt.Sprintf("summarize-%d", n)},
		ReadTransform: func(b []byte) []byte {
			lines := bytes.SplitAfter(b, []byte("\n"))
			if len(lines) <= n {
				return b
			}
			out := bytes.Join(lines[:n], nil)
			return append(out, []byte("[...]\n")...)
		},
		ExecCost: cost,
		Version:  1,
		MemoID:   "head:" + strconv.Itoa(n),
	}
}

// NewUppercaser returns a trivial read-path transform, useful as a
// cheap distinguishable personalization in tests and experiments.
func NewUppercaser(cost time.Duration) *Transformer {
	return &Transformer{
		Base:          Base{PropName: "uppercase"},
		ReadTransform: bytes.ToUpper,
		ExecCost:      cost,
		Version:       1,
		MemoID:        "upper",
	}
}

// NewWatermarker returns a read-path property appending a per-user
// banner, guaranteeing per-user distinct content (the worst case for
// shared caching, exercised in experiment E3). Its output is sized
// exactly, so a cache can keep it as the stored bytes without a copy.
func NewWatermarker(user string, cost time.Duration) *Transformer {
	banner := []byte("\n-- retrieved for " + user + " --\n")
	return &Transformer{
		Base: Base{PropName: "watermark:" + user},
		ReadTransform: func(b []byte) []byte {
			out := make([]byte, len(b)+len(banner))
			copy(out[copy(out, b):], banner)
			return out
		},
		ExecCost: cost,
		Version:  1,
		MemoID:   "banner:" + user,
	}
}

// NewRot13 returns a toy encryption property: rot13 on the write path,
// rot13 on the read path (self-inverse), demonstrating symmetric
// read/write chains.
func NewRot13(cost time.Duration) *Transformer {
	rot := func(b []byte) []byte {
		out := make([]byte, len(b))
		for i, c := range b {
			switch {
			case c >= 'a' && c <= 'z':
				out[i] = 'a' + (c-'a'+13)%26
			case c >= 'A' && c <= 'Z':
				out[i] = 'A' + (c-'A'+13)%26
			default:
				out[i] = c
			}
		}
		return out
	}
	return &Transformer{
		Base:           Base{PropName: "rot13"},
		ReadTransform:  rot,
		WriteTransform: rot,
		ExecCost:       cost,
		Version:        1,
		MemoID:         "rot13",
	}
}

// NewLineNumberer returns a read-path property prefixing each line
// with its number; order-sensitive with respect to summarization,
// which makes it the canonical demonstration of invalidation cause 3
// (property reordering changes content).
func NewLineNumberer(cost time.Duration) *Transformer {
	return &Transformer{
		Base: Base{PropName: "line-number"},
		ReadTransform: func(b []byte) []byte {
			if len(b) == 0 {
				return nil
			}
			var out bytes.Buffer
			for i, line := range bytes.SplitAfter(b, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				fmt.Fprintf(&out, "%4d  ", i+1)
				out.Write(line)
			}
			return out.Bytes()
		},
		ExecCost: cost,
		Version:  1,
		MemoID:   "linenum",
	}
}

// SortedWords returns the keys of a word table in sorted order; a
// helper for deterministic docs/tests.
func SortedWords(table map[string]string) []string {
	words := make([]string, 0, len(table))
	for w := range table {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}
