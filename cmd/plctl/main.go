// Command plctl is the control CLI for a running placelessd: it
// creates documents, attaches properties, reads and writes content,
// and watches invalidation pushes.
//
// Usage:
//
//	plctl [-addr host:7999] <command> [args]
//
// Commands:
//
//	create  <doc> <owner> [file]          create a document (content from file or stdin)
//	read    <doc> <user>                  print the user's view of the document
//	write   <doc> <user> [file]           replace content (from file or stdin)
//	addref  <doc> <user>                  give a user a reference
//	attach  <doc> <user|-> <spec>         attach a property (- = universal)
//	detach  <doc> <user|-> <name>         detach a property
//	static  <doc> <user|-> <key> [value]  attach a static label
//	actives <doc> <user|->                list active properties
//	describe <doc>                        print the document's full configuration
//	find    <user> <key> [value]          list documents carrying a static label
//	watch   <doc> <user>                  subscribe and print invalidations
//	stats                                 print server counters (or /metrics with -http)
//	trace   [n]                           print recent read traces (requires -http)
//	ring    [doc [user]]                  print cluster ring ownership (see below)
//	specs                                 list attachable property specs
//
// With -http set to placelessd's observability address, stats scrapes
// /metrics instead of the TCP stats op (one line per counter/gauge),
// and trace renders the last n per-read traces from /debug/traces.
//
// ring inspects consistent-hash placement (docs/CLUSTER.md). With -http
// set to a plcached it fetches /ring and prints live
// per-node state, shares, and — given doc/user arguments — the key's
// owner set. With `ring -nodes a,b,c [-replicas N] [-vnodes N]` it
// computes the same placement offline, for planning joins and removals
// before touching the fleet.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"

	"placeless/internal/server"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: plctl [-addr host:7999] [-http host:port] <create|read|write|addref|attach|detach|static|actives|describe|find|watch|stats|trace|ring|specs> [args]")
	os.Exit(2)
}

// level interprets the user argument: "-" selects the universal level.
func level(arg string) (user string, personal bool) {
	if arg == "-" {
		return "", false
	}
	return arg, true
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7999", "placelessd address")
	httpAddr := flag.String("http", "", "placelessd observability address (enables HTTP-backed stats/trace)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	cmd, rest := args[0], args[1:]

	if cmd == "ring" {
		if err := ringCmd(*httpAddr, rest, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "plctl: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if cmd == "specs" {
		for _, s := range server.KnownPropertySpecs() {
			fmt.Println(s)
		}
		return
	}

	// Observability commands talk HTTP, not the TCP protocol.
	if cmd == "trace" || (cmd == "stats" && *httpAddr != "") {
		if *httpAddr == "" {
			fmt.Fprintln(os.Stderr, "plctl: trace requires -http (placelessd's observability address)")
			os.Exit(1)
		}
		var err error
		if cmd == "stats" {
			err = httpStats(*httpAddr, os.Stdout)
		} else {
			n := 20
			if len(rest) > 0 {
				if n, err = strconv.Atoi(rest[0]); err != nil {
					usage()
				}
			}
			err = httpTrace(*httpAddr, n, os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "plctl: %v\n", err)
			os.Exit(1)
		}
		return
	}

	c, err := server.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plctl: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	if cmd == "watch" {
		if len(rest) != 2 {
			usage()
		}
		c.OnInvalidate(func(doc, user string) {
			if user == "" {
				fmt.Printf("invalidate %s (all users)\n", doc)
			} else {
				fmt.Printf("invalidate %s (user %s)\n", doc, user)
			}
		})
		if err := c.Subscribe(rest[0], rest[1]); err != nil {
			fmt.Fprintf(os.Stderr, "plctl: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "plctl: watching %s/%s (ctrl-c to stop)\n", rest[0], rest[1])
		select {} // run until interrupted
	}

	if err := dispatch(c, cmd, rest, os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			usage()
		}
		fmt.Fprintf(os.Stderr, "plctl: %v\n", err)
		os.Exit(1)
	}
}
