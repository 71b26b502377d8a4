package property

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

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
	// CacheVote is this property's cacheability vote (zero value
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
	ctx.Vote(t.CacheVote)
	f, cost, sleep := t.WriteTransform, t.ExecCost, ctx.Sleep
	return func(b []byte) []byte {
		if sleep != nil && cost > 0 {
			sleep(cost)
		}
		return f(b)
	}
}

// wordMap rewrites whole words according to a replacement table,
// preserving non-word bytes. Capitalized forms are handled by
// lowercasing the lookup and re-capitalizing the replacement.
func wordMap(table map[string]string) stream.Transform {
	return func(b []byte) []byte {
		var out bytes.Buffer
		word := make([]byte, 0, 32)
		flush := func() {
			if len(word) == 0 {
				return
			}
			w := string(word)
			repl, ok := table[strings.ToLower(w)]
			if !ok {
				out.Write(word)
			} else {
				if w[0] >= 'A' && w[0] <= 'Z' && len(repl) > 0 {
					repl = strings.ToUpper(repl[:1]) + repl[1:]
				}
				out.WriteString(repl)
			}
			word = word[:0]
		}
		for _, c := range b {
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
				word = append(word, c)
			} else {
				flush()
				out.WriteByte(c)
			}
		}
		flush()
		return out.Bytes()
	}
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
				return append([]byte{}, b...)
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
