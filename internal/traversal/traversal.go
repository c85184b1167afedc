// Package traversal implements graph traversal queries (Appendix B.2):
// breadth-first search over any graph store, expressed as the recursive
// neighbor expansion the paper describes (§4.2) — each step expands the
// whole frontier one hop.
package traversal

import "zipg/internal/graphapi"

// BFS explores from start up to maxDepth hops (the paper bounds depth at
// 5) following edges of every type, and returns the visited node IDs in
// discovery order (including start). Per §4.2, a traversal step is a
// sequence of get_edge_record and get_edge_data operations: each
// expanded edge's full data (destination, timestamp, properties) is
// retrieved, exactly as the paper's traversal workload does — which is
// what makes edge property storage part of a traversal's working set.
// A step is one graphapi.Expand of the frontier, so a store that ships
// the hop (the cluster) reads it in one call per owner; a hop that
// cannot be read ends the search.
func BFS(s graphapi.Store, start graphapi.NodeID, maxDepth int) []graphapi.NodeID {
	visited := map[graphapi.NodeID]bool{start: true}
	order := []graphapi.NodeID{start}
	frontier := []graphapi.NodeID{start}
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		hop, err := graphapi.Expand(s, frontier, graphapi.WildcardType, graphapi.ByOrder(0, graphapi.NoLimit), true)
		if err != nil {
			break
		}
		var next []graphapi.NodeID
		for _, edges := range hop {
			for _, d := range edges {
				if !visited[d.Dst] {
					visited[d.Dst] = true
					order = append(order, d.Dst)
					next = append(next, d.Dst)
				}
			}
		}
		frontier = next
	}
	return order
}
