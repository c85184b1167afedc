package temporal

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"zipg/internal/layout"
	"zipg/internal/store"
)

// HTTP change feed: the subscription API exposed over the admin
// listener as a chunked NDJSON stream (the cluster's RPC layer is
// strictly request/reply, so streaming rides HTTP). One JSON object per line,
// flushed per delivered batch.

// WireEvent is the JSON shape of one streamed event.
type WireEvent struct {
	Seq   uint64            `json:"seq"`
	Part  int               `json:"part"`
	Kind  string            `json:"kind"`
	Node  layout.NodeID     `json:"node"`
	Src   layout.NodeID     `json:"src,omitempty"`
	Dst   layout.NodeID     `json:"dst,omitempty"`
	EType layout.EdgeType   `json:"etype,omitempty"`
	Ts    int64             `json:"ts,omitempty"`
	Props map[string]string `json:"props,omitempty"`
	At    int64             `json:"at"`
}

// ToWire converts a store event to its streamed form.
func ToWire(ev store.Event) WireEvent {
	w := WireEvent{
		Seq:  ev.Seq,
		Part: ev.Part,
		Kind: ev.Kind.String(),
		Node: ev.Node,
		At:   ev.At,
	}
	if ev.Kind == store.EvEdgeAdd || ev.Kind == store.EvEdgeDel {
		w.Src = ev.Edge.Src
		w.Dst = ev.Edge.Dst
		w.EType = ev.Edge.Type
		w.Ts = ev.Edge.Timestamp
	}
	if len(ev.Props) > 0 {
		w.Props = ev.Props
	}
	return w
}

// StreamHandler serves the engine's change feed as chunked NDJSON.
// Query parameters:
//
//	node=N           filter: events touching node N
//	etype=T          filter: edge events of type T
//	max=N            stop after N events (0/absent: until client leaves)
//	since=S&part=P   first replay partition P's tail past sequence S
//	                 (one {"catchup":...} header line reports whether the
//	                 tail still reached back that far), then go live
//
// Events published between the catchup snapshot and the live
// subscription are not deduplicated; consumers needing exactly-once
// must dedupe on (part, seq).
func StreamHandler(eng *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var f Filter
		if v := q.Get("node"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad node: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.Node, f.HasNode = layout.NodeID(n), true
		}
		if v := q.Get("etype"); v != "" {
			t, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				http.Error(w, "bad etype: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.Type, f.HasType = layout.EdgeType(t), true
		}
		max := 0
		if v := q.Get("max"); v != "" {
			m, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad max: "+err.Error(), http.StatusBadRequest)
				return
			}
			max = m
		}

		flusher, _ := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Content-Type-Options", "nosniff")
		enc := json.NewEncoder(w)

		// Subscribe before catchup so no event can fall between the
		// replayed tail and the live stream.
		sub := eng.Subscribe(f, 0)
		defer sub.Close()

		sent := 0
		if v := q.Get("since"); v != "" {
			since, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			part := 0
			if pv := q.Get("part"); pv != "" {
				if part, err = strconv.Atoi(pv); err != nil {
					http.Error(w, "bad part: "+err.Error(), http.StatusBadRequest)
					return
				}
			}
			evs, ok := eng.Catchup(part, since, f)
			fmt.Fprintf(w, `{"catchup":%v,"part":%d,"since":%d,"events":%d}`+"\n",
				ok, part, since, len(evs))
			for _, ev := range evs {
				if max > 0 && sent >= max {
					break
				}
				enc.Encode(ToWire(ev))
				sent++
			}
			if flusher != nil {
				flusher.Flush()
			}
		}

		for max <= 0 || sent < max {
			want := 0
			if max > 0 {
				want = max - sent
			}
			evs, err := sub.Next(r.Context(), want)
			if err != nil || len(evs) == 0 {
				return // client gone or subscription closed
			}
			for _, ev := range evs {
				enc.Encode(ToWire(ev))
				sent++
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
