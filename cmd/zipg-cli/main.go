// Command zipg-cli is an interactive shell over a ZipG cluster (connect
// with -servers) or over a freshly generated local graph (default). It
// exposes the Table 1 API:
//
//	props <id> [propertyID...]      get_node_property
//	find <key>=<value> ...          get_node_ids
//	neighbors <id> [type] [k=v...]  get_neighbor_ids
//	record <id> <type>              get_edge_record (+ all edge data)
//	count <id> <type>               assoc_count
//	add-node <id> k=v ...           append
//	add-edge <src> <dst> <type> <ts> [k=v...]
//	del-node <id>                   delete
//	del-edge <src> <type> <dst>     delete
//	window <id> <type> <tLo> <tHi>  assoc_time_range (in-window edges)
//	wcount <id> <type> <tLo> <tHi>  assoc_count_in_window
//	path <src> <dst> <tLo> <tHi> <maxHops>
//	                                temporal reachability in the window
//	subscribe [node=N] [etype=T] [max=N] [since=S] [part=P]
//	                                stream live change events: local
//	                                engine directly, or -admin's
//	                                /stream/subscribe NDJSON feed
//	save <path> / load <path>       persist / restore (local mode)
//	trace [id]                      fetch + pretty-print a distributed
//	                                span tree from -admin (no id: list)
//	codecs                          per-shard region/α report: local
//	                                store directly, or /debug/codecs
//	                                from -admin
//	quit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"zipg"
	"zipg/internal/cluster"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/store"
	"zipg/internal/telemetry"
	"zipg/internal/temporal"
)

func main() {
	servers := flag.String("servers", "", "comma-separated cluster addresses (empty: local generated graph)")
	dataset := flag.String("dataset", "orkut", "dataset for local mode")
	base := flag.Int64("base", 128<<10, "local dataset base size")
	admin := flag.String("admin", "", "a server's admin HTTP address (host:port), enables the trace command")
	flag.Parse()

	var store graphapi.Store
	var local *zipg.Graph
	if *servers != "" {
		client, err := cluster.NewClient(strings.Split(*servers, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer client.Close()
		store = client
		fmt.Printf("connected to %s\n", *servers)
	} else {
		var d *gen.Dataset
		for _, spec := range gen.StandardSpecs(*base) {
			if spec.Name == *dataset {
				d = spec.Generate()
			}
		}
		if d == nil {
			fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		fmt.Printf("compressing local %s (%d nodes, %d edges)...\n", *dataset, d.NumNodes(), d.NumEdges())
		g, err := zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{NumShards: 2})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("footprint: %d bytes (raw %d)\n", g.CompressedFootprint(), g.RawSize())
		store = g
		local = g
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("zipg> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if line == "quit" || line == "exit" {
				return
			}
			fields := strings.Fields(line)
			switch {
			case fields[0] == "save" && len(fields) == 2:
				if err := saveLocal(local, fields[1]); err != nil {
					fmt.Println("error:", err)
				}
			case fields[0] == "trace":
				if err := traceCmd(*admin, fields[1:]); err != nil {
					fmt.Println("error:", err)
				}
			case fields[0] == "codecs":
				if err := codecsCmd(local, *admin); err != nil {
					fmt.Println("error:", err)
				}
			case fields[0] == "window" || fields[0] == "wcount" || fields[0] == "path":
				if err := temporalCmd(store, fields); err != nil {
					fmt.Println("error:", err)
				}
			case fields[0] == "subscribe":
				if err := subscribeCmd(local, *admin, fields[1:]); err != nil {
					fmt.Println("error:", err)
				}
			case fields[0] == "load" && len(fields) == 2:
				g, err := loadLocal(fields[1])
				if err != nil {
					fmt.Println("error:", err)
				} else {
					store, local = g, g
					fmt.Println("loaded", fields[1])
				}
			default:
				if err := run(store, fields); err != nil {
					fmt.Println("error:", err)
				}
			}
		}
		fmt.Print("zipg> ")
	}
}

// codecsCmd prints the per-shard region report: each region's (Ψ, the
// sampled rows, SA/ISA samples, offset columns) encoding, size and bits
// per row, Ψ's share of payload-free run blocks and directory/payload
// split, and each shard's sampling rate α and read heat. In local mode it
// reads the store directly; otherwise it fetches /debug/codecs from
// the -admin endpoint.
func codecsCmd(local *zipg.Graph, admin string) error {
	if local != nil {
		fmt.Print(store.FormatCodecReport(local.Store().CodecReport()))
		return nil
	}
	if admin == "" {
		return fmt.Errorf("codecs requires local mode or -admin host:port (a zipg-server admin endpoint)")
	}
	if !strings.Contains(admin, "://") {
		admin = "http://" + admin
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(admin + "/debug/codecs")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s from %s/debug/codecs", resp.Status, admin)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// traceCmd fetches one assembled distributed span tree from a server's
// admin endpoint and pretty-prints it; with no ID it lists the most
// recent trace IDs instead.
func traceCmd(admin string, args []string) error {
	if admin == "" {
		return fmt.Errorf("trace requires -admin host:port (a zipg-server admin endpoint)")
	}
	if !strings.Contains(admin, "://") {
		admin = "http://" + admin
	}
	url := admin + "/debug/trace/"
	if len(args) > 0 {
		url += args[0]
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg strings.Builder
		fmt.Fprintf(&msg, "%s: ", resp.Status)
		buf := make([]byte, 256)
		n, _ := resp.Body.Read(buf)
		msg.Write(buf[:n])
		return fmt.Errorf("%s", strings.TrimSpace(msg.String()))
	}
	if len(args) == 0 {
		var ids []string
		if err := json.NewDecoder(resp.Body).Decode(&ids); err != nil {
			return err
		}
		if len(ids) == 0 {
			fmt.Println("no traces recorded (is telemetry on and the trace sampled?)")
			return nil
		}
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}
	var tree telemetry.TraceTree
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		return err
	}
	fmt.Printf("trace %s: %d spans\n", tree.TraceID, tree.SpanCount)
	for _, root := range tree.Roots {
		printSpanTree(root, 0)
	}
	return nil
}

// printSpanTree renders one node of the span tree: op, origin server,
// duration, then each phase with its share of the span's own duration.
func printSpanTree(n *telemetry.TraceNode, depth int) {
	indent := strings.Repeat("  ", depth)
	where := "client"
	if n.Span.Server >= 0 {
		where = fmt.Sprintf("server %d", n.Span.Server)
	}
	fmt.Printf("%s%s  [%s]  %s", indent, n.Span.Op, where, n.Span.Duration)
	if n.Span.Err != "" {
		fmt.Printf("  ERR %q", n.Span.Err)
	}
	fmt.Println()
	for _, p := range n.Span.Phases {
		d := time.Duration(p.Ns)
		pct := 0.0
		if n.Span.Duration > 0 {
			pct = 100 * float64(p.Ns) / float64(n.Span.Duration)
		}
		fmt.Printf("%s  · %-13s %12s  %5.1f%%\n", indent, p.Name, d, pct)
	}
	for _, c := range n.Children {
		printSpanTree(c, depth+1)
	}
}

// temporalCmd runs the windowed analytics / temporal reachability
// commands through zipg.Windowed: the local graph's engine, or the
// cluster client's routed temporal calls.
func temporalCmd(s graphapi.Store, args []string) error {
	w, ok := s.(zipg.Windowed)
	if !ok {
		return fmt.Errorf("temporal commands need local mode or a cluster connection")
	}
	switch args[0] {
	case "window", "wcount":
		if len(args) != 5 {
			return fmt.Errorf("usage: %s <id> <type> <tLo> <tHi>", args[0])
		}
		var vals [4]int64
		for i := range vals {
			v, err := parseID(args[1+i])
			if err != nil {
				return err
			}
			vals[i] = v
		}
		id, etype, tLo, tHi := vals[0], vals[1], vals[2], vals[3]
		if args[0] == "wcount" {
			fmt.Println(w.AssocCountInWindow(id, etype, tLo, tHi))
			return nil
		}
		edges := w.AssocTimeRange(id, etype, tLo, tHi, 0)
		fmt.Printf("count=%d\n", len(edges))
		for i, d := range edges {
			fmt.Printf("  [%d] dst=%d ts=%d props=%v\n", i, d.Dst, d.Timestamp, d.Props)
		}
	case "path":
		if len(args) != 6 {
			return fmt.Errorf("usage: path <src> <dst> <tLo> <tHi> <maxHops>")
		}
		var vals [5]int64
		for i := range vals {
			v, err := parseID(args[1+i])
			if err != nil {
				return err
			}
			vals[i] = v
		}
		res := w.PathInWindow(vals[0], vals[1], vals[2], vals[3], int(vals[4]))
		if !res.Found {
			fmt.Println("no path")
			return nil
		}
		fmt.Printf("found: %d hops, path %v\n", res.Hops, res.Path)
	}
	return nil
}

// subscribeCmd streams live change events. Local mode subscribes on
// the graph's engine and polls until max events (default 16) arrive;
// cluster mode streams the -admin endpoint's NDJSON change feed.
// Interrupt with Ctrl-C (the whole shell exits) or bound with max=N.
func subscribeCmd(local *zipg.Graph, admin string, args []string) error {
	params, err := parseProps(args)
	if err != nil {
		return err
	}
	max := 16
	if v, ok := params["max"]; ok {
		if max, err = strconv.Atoi(v); err != nil {
			return err
		}
	}
	if local != nil {
		var f zipg.SubscriptionFilter
		if v, ok := params["node"]; ok {
			n, err := parseID(v)
			if err != nil {
				return err
			}
			f.Node, f.HasNode = n, true
		}
		if v, ok := params["etype"]; ok {
			t, err := parseID(v)
			if err != nil {
				return err
			}
			f.Type, f.HasType = t, true
		}
		sub := local.Subscribe(f, 0)
		defer sub.Close()
		fmt.Printf("subscribed (waiting for up to %d events; run writes from another command)\n", max)
		seen := 0
		for seen < max {
			evs, err := sub.Next(context.Background(), max-seen)
			if err != nil || evs == nil {
				return err
			}
			for _, ev := range evs {
				b, _ := json.Marshal(temporal.ToWire(ev))
				fmt.Println(string(b))
				seen++
			}
		}
		return nil
	}
	if admin == "" {
		return fmt.Errorf("subscribe requires local mode or -admin host:port (a zipg-server admin endpoint)")
	}
	if !strings.Contains(admin, "://") {
		admin = "http://" + admin
	}
	q := make([]string, 0, len(params)+1)
	q = append(q, fmt.Sprintf("max=%d", max))
	for _, k := range []string{"node", "etype", "since", "part"} {
		if v, ok := params[k]; ok {
			q = append(q, k+"="+v)
		}
	}
	resp, err := http.Get(admin + "/stream/subscribe?" + strings.Join(q, "&"))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s from %s/stream/subscribe", resp.Status, admin)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// saveLocal persists a local graph to path.
func saveLocal(g *zipg.Graph, path string) error {
	if g == nil {
		return fmt.Errorf("save works in local mode only")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.Save(f); err != nil {
		return err
	}
	fmt.Println("saved", path)
	return f.Sync()
}

// loadLocal restores a graph persisted by saveLocal.
func loadLocal(path string) (*zipg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return zipg.Load(f, nil)
}

func parseProps(args []string) (map[string]string, error) {
	props := map[string]string{}
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("expected key=value, got %q", a)
		}
		props[k] = v
	}
	return props, nil
}

func parseID(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

func run(s graphapi.Store, args []string) error {
	switch args[0] {
	case "props":
		if len(args) < 2 {
			return fmt.Errorf("usage: props <id> [propertyID...]")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		vals, ok := s.GetNodeProperty(id, args[2:])
		if !ok {
			return fmt.Errorf("node %d not found", id)
		}
		fmt.Println(vals)
	case "find":
		props, err := parseProps(args[1:])
		if err != nil {
			return err
		}
		fmt.Println(s.GetNodeIDs(props))
	case "neighbors":
		if len(args) < 2 {
			return fmt.Errorf("usage: neighbors <id> [type] [k=v...]")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		etype := graphapi.WildcardType
		rest := args[2:]
		if len(rest) > 0 && !strings.Contains(rest[0], "=") {
			if etype, err = parseID(rest[0]); err != nil {
				return err
			}
			rest = rest[1:]
		}
		props, err := parseProps(rest)
		if err != nil {
			return err
		}
		fmt.Println(s.GetNeighborIDs(id, etype, props))
	case "record":
		if len(args) != 3 {
			return fmt.Errorf("usage: record <id> <type>")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		etype, err := parseID(args[2])
		if err != nil {
			return err
		}
		rec, ok := s.GetEdgeRecord(id, etype)
		if !ok {
			return fmt.Errorf("no record (%d,%d)", id, etype)
		}
		fmt.Printf("count=%d\n", rec.Count())
		for i := 0; i < rec.Count(); i++ {
			d, err := rec.Data(i)
			if err != nil {
				return err
			}
			fmt.Printf("  [%d] dst=%d ts=%d props=%v\n", i, d.Dst, d.Timestamp, d.Props)
		}
	case "count":
		if len(args) != 3 {
			return fmt.Errorf("usage: count <id> <type>")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		etype, err := parseID(args[2])
		if err != nil {
			return err
		}
		if rec, ok := s.GetEdgeRecord(id, etype); ok {
			fmt.Println(rec.Count())
		} else {
			fmt.Println(0)
		}
	case "add-node":
		if len(args) < 2 {
			return fmt.Errorf("usage: add-node <id> [k=v...]")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		props, err := parseProps(args[2:])
		if err != nil {
			return err
		}
		return s.AppendNode(id, props)
	case "add-edge":
		if len(args) < 5 {
			return fmt.Errorf("usage: add-edge <src> <dst> <type> <ts> [k=v...]")
		}
		var vals [4]int64
		for i := 0; i < 4; i++ {
			v, err := parseID(args[1+i])
			if err != nil {
				return err
			}
			vals[i] = v
		}
		props, err := parseProps(args[5:])
		if err != nil {
			return err
		}
		return s.AppendEdge(graphapi.Edge{Src: vals[0], Dst: vals[1], Type: vals[2], Timestamp: vals[3], Props: props})
	case "del-node":
		if len(args) != 2 {
			return fmt.Errorf("usage: del-node <id>")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		return s.DeleteNode(id)
	case "del-edge":
		if len(args) != 4 {
			return fmt.Errorf("usage: del-edge <src> <type> <dst>")
		}
		src, err := parseID(args[1])
		if err != nil {
			return err
		}
		etype, err := parseID(args[2])
		if err != nil {
			return err
		}
		dst, err := parseID(args[3])
		if err != nil {
			return err
		}
		n, err := s.DeleteEdges(src, etype, dst)
		if err != nil {
			return err
		}
		fmt.Printf("deleted %d edges\n", n)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}
