// Command plgateway serves a Placeless document space over HTTP with a
// content cache in front, so plain web clients (curl, browsers) can
// read and write personalized document views.
//
// Usage:
//
//	plgateway [-addr :8099] [-root DIR] [-capacity BYTES] [-memoize]
//
// Example session:
//
//	plgateway -root /tmp/pl -demo &
//	curl 'localhost:8099/doc/memo?user=alice'
//	curl -X PUT --data-binary @draft.txt 'localhost:8099/doc/memo?user=alice'
//	curl 'localhost:8099/stats'
//
// It serves a private document space inside its own process, which
// only -demo populates; plctl and placelessd cannot reach it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/httpgw"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

func main() {
	addr := flag.String("addr", ":8099", "HTTP listen address")
	root := flag.String("root", "", "directory backing document content (default: in-memory)")
	capacity := flag.Int64("capacity", 0, "cache capacity in bytes (0 = unlimited)")
	seedDocs := flag.Bool("demo", false, "create demo documents (memo for users alice/bob)")
	memoize := flag.Bool("memoize", false, "memoize the universal transform stage (MISS responses gain X-Placeless-Universal: MEMO|FULL)")
	flag.Parse()

	clk := clock.Real{}
	fast := simnet.NewPath("local", 1)

	var backing repo.Repository
	if *root != "" {
		if err := os.MkdirAll(*root, 0o755); err != nil {
			log.Fatalf("plgateway: %v", err)
		}
		fsRepo, err := repo.NewFS("fs", clk, fast, *root)
		if err != nil {
			log.Fatalf("plgateway: %v", err)
		}
		backing = fsRepo
	} else {
		backing = repo.NewMem("mem", clk, fast)
	}

	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{Name: "gateway", Capacity: *capacity, Memoize: *memoize})

	if *seedDocs {
		if err := backing.Store("/memo", []byte("teh demo memo\n")); err != nil {
			log.Fatal(err)
		}
		if _, err := space.CreateDocument("memo", "alice", &property.RepoBitProvider{Repo: backing, Path: "/memo"}); err != nil {
			log.Fatal(err)
		}
		if _, err := space.AddReference("memo", "bob"); err != nil {
			log.Fatal(err)
		}
		if err := space.Attach("memo", "", docspace.Universal, property.NewLineNumberer(0)); err != nil {
			log.Fatal(err)
		}
		if err := space.Attach("memo", "alice", docspace.Personal, property.NewSpellCorrector(0)); err != nil {
			log.Fatal(err)
		}
		fmt.Println("plgateway: demo document 'memo' created (line-numbered for everyone, spell-corrected for alice)")
	}

	fmt.Printf("plgateway: serving on %s (backing: %s)\n", *addr, backing.Name())
	if err := http.ListenAndServe(*addr, httpgw.New(space, cache)); err != nil {
		log.Fatalf("plgateway: %v", err)
	}
}
