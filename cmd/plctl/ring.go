package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"strings"

	"placeless/internal/cluster"
)

// ringView is the JSON shape of plcached's /ring endpoint; offline
// planning fills the same struct from a locally built ring so both
// modes render through one function.
type ringView struct {
	Replicas int                `json:"replicas"`
	VNodes   int                `json:"vnodes"`
	Nodes    []cluster.NodeInfo `json:"nodes"`
	Doc      string             `json:"doc"`
	User     string             `json:"user"`
	Owners   []string           `json:"owners"`
}

// ringCmd implements `plctl ring [-nodes a,b,c [-replicas N] [-vnodes
// N]] [doc [user]]`. With -nodes it computes placement offline from
// the same ring code the router runs; otherwise it fetches /ring from
// the plcached at httpAddr and prints live per-node state.
func ringCmd(httpAddr string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ring", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	nodes := fs.String("nodes", "", "comma-separated member names: compute placement offline")
	replicas := fs.Int("replicas", 2, "offline: owner-set size")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "offline: virtual nodes per member")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("ring: %w", err)
	}
	if fs.NArg() > 2 {
		return errors.New("ring: at most a doc and a user argument")
	}
	doc, user := fs.Arg(0), fs.Arg(1)

	var view ringView
	if *nodes != "" {
		view = planRing(strings.Split(*nodes, ","), *replicas, *vnodes, doc, user)
		if len(view.Nodes) == 0 {
			return errors.New("ring: -nodes lists no members")
		}
	} else {
		if httpAddr == "" {
			return errors.New("ring requires -http (a plcached) or -nodes (offline planning)")
		}
		path := "/ring"
		if doc != "" {
			path += "?" + url.Values{"doc": {doc}, "user": {user}}.Encode()
		}
		body, err := httpGet(httpAddr, path)
		if err != nil {
			return err
		}
		defer body.Close()
		if err := json.NewDecoder(body).Decode(&view); err != nil {
			return fmt.Errorf("decode /ring: %w", err)
		}
	}
	renderRing(stdout, view, *nodes == "")
	return nil
}

// planRing builds the ring the named members would form and reads the
// shares and (for a non-empty doc) the owner set off it.
func planRing(members []string, replicas, vnodes int, doc, user string) ringView {
	ring := cluster.NewRing(replicas, vnodes)
	for _, m := range members {
		if m = strings.TrimSpace(m); m != "" {
			ring.Add(m)
		}
	}
	view := ringView{Replicas: ring.Replicas(), VNodes: ring.VNodes(), Doc: doc, User: user}
	shares := ring.Shares()
	for _, n := range ring.Nodes() {
		view.Nodes = append(view.Nodes, cluster.NodeInfo{Name: n, Share: shares[n]})
	}
	if doc != "" {
		view.Owners = ring.Owners(cluster.Key(doc, user))
	}
	return view
}

// renderRing prints the header, one row per member and, when the view
// names a key, its owner set primary-first. live adds the connection
// state and entry count only a running router knows.
func renderRing(w io.Writer, v ringView, live bool) {
	fmt.Fprintf(w, "ring: %d nodes, %d replicas, %d vnodes/node\n", len(v.Nodes), v.Replicas, v.VNodes)
	for _, n := range v.Nodes {
		if live {
			fmt.Fprintf(w, "%-24s %-12s share %5.1f%%  entries %d\n", n.Name, n.State, n.Share*100, n.Entries)
		} else {
			fmt.Fprintf(w, "%-24s share %5.1f%%\n", n.Name, n.Share*100)
		}
	}
	if v.Doc != "" {
		fmt.Fprintf(w, "owners(%s, %s): %s\n", v.Doc, v.User, strings.Join(v.Owners, ", "))
	}
}
