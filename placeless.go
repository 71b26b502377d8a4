// Package placeless is a from-scratch implementation of the system in
// "Caching Documents with Active Properties" (de Lara et al., HotOS
// VII, 1999): the Placeless Documents middleware — documents with
// per-user active properties that transform content on the read and
// write paths — and the caching architecture the paper contributes,
// built on notifiers, verifiers, cacheability indicators,
// signature-shared storage, and cost-aware (Greedy-Dual-Size)
// replacement.
//
// This package is the public facade: it re-exports the library's
// central types and constructors so applications import one package.
// The implementation lives in the internal packages (internal/core,
// internal/docspace, internal/property, …); see README.md for the
// architecture tour and DESIGN.md for the paper mapping.
//
// A minimal session:
//
//	clk := placeless.NewVirtualClock(start)
//	disk := placeless.NewMemRepository("home", clk, placeless.LocalPath(1))
//	space := placeless.NewSpace(clk, nil)
//
//	disk.Store("/doc.txt", []byte("teh content"))
//	space.CreateDocument("doc", "alice", &placeless.RepoBitProvider{Repo: disk, Path: "/doc.txt"})
//	space.Attach("doc", "alice", placeless.Personal, placeless.NewSpellCorrector(0))
//
//	cache := placeless.NewCache(space, placeless.CacheOptions{})
//	data, _ := cache.Read("doc", "alice") // "the content"
package placeless

import (
	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

// Document model (internal/docspace).
type (
	// Space is the Placeless middleware: base documents, per-user
	// references, property attachment, and the event-driven
	// read/write paths.
	Space = docspace.Space
	// Level selects a property attachment point: Universal (base
	// document, seen by all) or Personal (one reference).
	Level = docspace.Level
)

// Attachment levels.
const (
	// Universal properties live on the base document.
	Universal = docspace.Universal
	// Personal properties live on a single user's reference.
	Personal = docspace.Personal
)

// NewSpace returns an empty document space on the given clock; archive
// (may be nil) receives versioning snapshots.
var NewSpace = docspace.New

// Caching (internal/core) — the paper's contribution.
type (
	// Cache is the document-content cache: (doc, user)-keyed entries,
	// notifier/verifier consistency, cacheability indicators, and
	// cost-aware replacement. What its reads return is the cache's own
	// bytes, shared by every reader of the content: never modify them.
	Cache = core.Cache
	// CacheOptions configures a Cache.
	CacheOptions = core.Options
	// CacheStats are the cache's cumulative counters.
	CacheStats = core.Stats
)

// NewCache returns a cache in front of a document space.
var NewCache = core.New

// Properties (internal/property).
type (
	// Active is an event-driven property.
	Active = property.Active
	// Static is a label property.
	Static = property.Static
	// BitProvider links a base document to its content.
	BitProvider = property.BitProvider
	// RepoBitProvider is the standard repository-backed bit-provider.
	RepoBitProvider = property.RepoBitProvider
	// Verifier checks a cached entry's validity on every hit.
	Verifier = property.Verifier
	// Cacheability is a property's caching vote.
	Cacheability = property.Cacheability
)

// Cacheability votes.
const (
	// Unrestricted allows plain caching.
	Unrestricted = property.Unrestricted
	// CacheWithEvents caches but forwards operation events.
	CacheWithEvents = property.CacheWithEvents
	// Uncacheable forbids caching.
	Uncacheable = property.Uncacheable
)

// Standard property constructors.
var (
	// NewSpellCorrector fixes known misspellings on read and write.
	NewSpellCorrector = property.NewSpellCorrector
	// NewTranslator translates content to French on the read path.
	NewTranslator = property.NewTranslator
	// NewSummarizer truncates content to its first n lines.
	NewSummarizer = property.NewSummarizer
	// NewVersioning archives the previous content on every write.
	NewVersioning = property.NewVersioning
	// NewReplicator copies content to another repository on a timer.
	NewReplicator = property.NewReplicator
	// NewAuditTrail records every read and write operation.
	NewAuditTrail = property.NewAuditTrail
	// NewQoS inflates replacement cost to meet a latency target.
	NewQoS = property.NewQoS
	// NewCompressor stores content deflate-compressed.
	NewCompressor = property.NewCompressor
	// NewCollection groups related documents for prefetching.
	NewCollection = property.NewCollection
	// NewWatermarker appends a per-user banner.
	NewWatermarker = property.NewWatermarker
)

// Repositories (internal/repo) and the simulation substrate.
type (
	// Repository is a content source (file system, web server, DMS,
	// live feed).
	Repository = repo.Repository
	// MemRepository is the in-memory mutable repository.
	MemRepository = repo.Mem
	// WebRepository is the TTL-consistency web origin.
	WebRepository = repo.Web
	// DMSRepository is the versioned document-management store.
	DMSRepository = repo.DMS
	// LiveFeedRepository is the always-changing (uncacheable) source.
	LiveFeedRepository = repo.LiveFeed
	// FSRepository is backed by a directory on disk.
	FSRepository = repo.FS
	// Clock is the time source abstraction.
	Clock = clock.Clock
	// VirtualClock is the deterministic simulated clock.
	VirtualClock = clock.Virtual
	// RealClock is the wall clock.
	RealClock = clock.Real
	// NetPath models network transfer costs to a repository.
	NetPath = simnet.Path
)

// Substrate constructors.
var (
	// NewVirtualClock returns a deterministic clock starting at the
	// given time.
	NewVirtualClock = clock.NewVirtual
	// NewMemRepository returns an in-memory repository.
	NewMemRepository = repo.NewMem
	// NewWebRepository returns a TTL web origin.
	NewWebRepository = repo.NewWeb
	// NewDMSRepository returns a versioned store.
	NewDMSRepository = repo.NewDMS
	// NewLiveFeedRepository returns an always-changing source.
	NewLiveFeedRepository = repo.NewLiveFeed
	// NewFSRepository returns a repository backed by a directory.
	NewFSRepository = repo.NewFS
	// LocalPath, LANPath and WANPath are the calibrated 1999-era
	// network paths used throughout the experiments.
	LocalPath = simnet.Local
	LANPath   = simnet.LAN
	WANPath   = simnet.WAN
)

// Observability (internal/obs).
type (
	// Observer instruments one cache's read path: per-stage latency
	// histograms, verdict and invalidation-cause counters, and a ring
	// of per-read traces, all scrapeable in Prometheus text format.
	Observer = obs.Observer
	// ReadTrace is one read's record in the Observer's trace ring.
	ReadTrace = obs.ReadTrace
)

// NewObserver returns an Observer with the read-path metric families
// registered. Attach it via CacheOptions.Observer to instrument one
// origin cache, or via RemoteCacheOptions.Observer to the remote caches
// of one sidecar, which record their wire round trips into it; their
// counters reach it through one RegisterRemoteMetrics call. Serve it
// with Observer.Mount.
var NewObserver = obs.NewObserver

// Client/server deployment (internal/server, internal/remote).
type (
	// Server exposes a document space over TCP.
	Server = server.Server
	// Client mirrors the Space API over a connection.
	Client = server.Client
	// RemoteCache is an application-machine cache over a Client with
	// push-based invalidation.
	RemoteCache = remote.Cache
	// RemoteCacheOptions configures a RemoteCache. Its Observer
	// records wire round trips only; RegisterRemoteMetrics publishes
	// the caches' counters.
	RemoteCacheOptions = remote.Options
)

// Deployment constructors.
var (
	// NewServer returns a TCP server for a space.
	NewServer = server.New
	// NewCachedServer returns a server with a server-side cache.
	NewCachedServer = server.NewCached
	// Dial connects to a Placeless server.
	Dial = server.Dial
	// NewRemoteCache wraps a client connection with a local cache.
	NewRemoteCache = remote.New
	// RegisterRemoteMetrics publishes the placeless_remote_* families
	// of one or more remote caches on an Observer, summed over the
	// caches; call it once per Observer.
	RegisterRemoteMetrics = remote.RegisterMetrics
)
