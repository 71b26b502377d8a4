package experiment

import (
	"fmt"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/trace"
)

// SharingConfig parameterizes the content-signature sharing experiment
// (E3).
type SharingConfig struct {
	// Docs is the document population.
	Docs int
	// Users is the user population; every user reads every document.
	Users int
	// Seed fixes sizes.
	Seed int64
}

// DefaultSharingConfig returns the configuration used by plbench and
// the benchmarks.
func DefaultSharingConfig() SharingConfig {
	return SharingConfig{Docs: 30, Users: 8, Seed: 1}
}

// SharingRow is one personalization-level row of experiment E3.
type SharingRow struct {
	// PersonalizedFrac is the fraction of users whose references
	// carry a content-transforming personal property (distinct
	// output per user).
	PersonalizedFrac float64
	// Entries is the number of (doc, user) cache entries.
	Entries int
	// BytesLogical is the sum of entry sizes before sharing.
	BytesLogical int64
	// BytesStored is the unique bytes actually stored.
	BytesStored int64
	// Saved is 1 - stored/logical: the benefit of signature-indirect
	// storage.
	Saved float64
}

// SharingResult is experiment E3's output.
type SharingResult struct {
	Config SharingConfig
	Rows   []SharingRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r SharingResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmtPct(row.PersonalizedFrac),
			fmt.Sprintf("%d", row.Entries),
			fmtInt(row.BytesLogical),
			fmtInt(row.BytesStored),
			fmtPct(row.Saved),
		})
	}
	return []string{"personalized users", "entries", "logical bytes", "stored bytes", "storage saved"}, rows
}

// RunSharing measures how much storage the (doc,user)→signature→bytes
// indirection saves as personalization rises: with no personal
// transforms every user shares one blob per document; with full
// personalization nothing can be shared (paper §3, Cache Management).
func RunSharing(cfg SharingConfig) (SharingResult, error) {
	res := SharingResult{Config: cfg}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		w := NewWorld(cfg.Seed, DefaultCacheOptions())
		personalized := int(frac * float64(cfg.Users))
		for i := 0; i < cfg.Docs; i++ {
			id := trace.DocID(i)
			if err := w.AddLocalDoc(id, "owner", Content(id, 4096)); err != nil {
				return res, err
			}
			for u := 0; u < cfg.Users; u++ {
				user := trace.UserID(u)
				if user != "owner" {
					if _, err := w.Space.AddReference(id, user); err != nil {
						return res, err
					}
				}
				if u < personalized {
					p := property.NewWatermarker(user, 0)
					if err := w.Space.Attach(id, user, docspace.Personal, p); err != nil {
						return res, err
					}
				}
			}
		}
		for i := 0; i < cfg.Docs; i++ {
			for u := 0; u < cfg.Users; u++ {
				if _, err := w.Cache.Read(trace.DocID(i), trace.UserID(u)); err != nil {
					return res, err
				}
			}
		}
		st := w.Cache.Stats()
		row := SharingRow{
			PersonalizedFrac: frac,
			Entries:          w.Cache.Len(),
			BytesLogical:     st.BytesLogical,
			BytesStored:      st.BytesStored,
		}
		if st.BytesLogical > 0 {
			row.Saved = 1 - float64(st.BytesStored)/float64(st.BytesLogical)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
