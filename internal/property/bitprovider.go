package property

import (
	"time"

	"placeless/internal/repo"
)

// RepoBitProvider links a base document to content stored in a
// repository. On reads it seeds the cache-facing read result the way
// the paper describes for bit-providers: it initializes the
// replacement cost with the retrieval cost, returns the
// source-appropriate verifier (TTL when the source advertises one,
// otherwise an mtime poll), and casts the source's cacheability vote.
type RepoBitProvider struct {
	// Repo is the content source; Path the document's location in it.
	Repo repo.Repository
	Path string
	// Vote is the provider's cacheability vote; sources whose
	// content changes every access (live feeds) should set
	// Uncacheable. Zero value is Unrestricted.
	Vote Cacheability
}

var _ BitProvider = (*RepoBitProvider)(nil)

// Name implements BitProvider.
func (p *RepoBitProvider) Name() string { return "bits:" + p.Repo.Name() + ":" + p.Path }

// Open implements BitProvider: it fetches the content, charges the
// retrieval cost, and registers verifier/vote/cost on the context.
func (p *RepoBitProvider) Open(ctx *ReadContext) ([]byte, error) {
	fr, err := p.Repo.Fetch(p.Path)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		ctx.AddCost(fr.Cost)
		ctx.Vote(p.Vote)
		if fr.Meta.TTL > 0 {
			ctx.AddVerifier(NewTTLVerifier(ctx.Now, fr.Meta.TTL))
		} else {
			ctx.AddVerifier(MTimeVerifier{
				Repo:    p.Repo,
				Path:    p.Path,
				ModTime: fr.Meta.ModTime,
				Version: fr.Meta.Version,
				Size:    fr.Meta.Size,
			})
		}
	}
	return fr.Data, nil
}

// Store implements BitProvider: data is stored back to the repository.
func (p *RepoBitProvider) Store(_ *WriteContext, data []byte) error {
	return p.Repo.Store(p.Path, data)
}

// ReadCurrent implements BitProvider.
func (p *RepoBitProvider) ReadCurrent() ([]byte, error) {
	fr, err := p.Repo.Fetch(p.Path)
	if err != nil {
		return nil, err
	}
	return fr.Data, nil
}

// ComposedBitProvider assembles a document from several sources — the
// paper's news-summary example. It concatenates the parts (with a
// separator) and returns a Composite verifier covering every source.
type ComposedBitProvider struct {
	// ProviderName labels the composition.
	ProviderName string
	// Parts are the underlying sources, in composition order.
	Parts []*RepoBitProvider
	// Separator is inserted between parts.
	Separator []byte
}

var _ BitProvider = (*ComposedBitProvider)(nil)

// Name implements BitProvider.
func (c *ComposedBitProvider) Name() string { return "composed:" + c.ProviderName }

// Open implements BitProvider by fetching every part. Each part
// contributes its retrieval cost and verifier; the verifiers are
// folded into one Composite so the cache sees a single unit.
func (c *ComposedBitProvider) Open(ctx *ReadContext) ([]byte, error) {
	sub := &ReadContext{Doc: ctx.Doc, User: ctx.User, Now: ctx.Now, Sleep: ctx.Sleep}
	var out []byte
	for i, part := range c.Parts {
		if i > 0 {
			out = append(out, c.Separator...)
		}
		data, err := part.Open(sub)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	res := sub.Result()
	ctx.AddCost(res.Cost)
	ctx.Vote(res.Cacheability)
	if len(res.Verifiers) > 0 {
		ctx.AddVerifier(Composite{Parts: res.Verifiers})
	}
	return out, nil
}

// Store implements BitProvider; composed documents are read-only.
func (c *ComposedBitProvider) Store(*WriteContext, []byte) error {
	return repo.ErrReadOnly
}

// ReadCurrent implements BitProvider.
func (c *ComposedBitProvider) ReadCurrent() ([]byte, error) {
	return c.Open(&ReadContext{Sleep: func(time.Duration) {}})
}
