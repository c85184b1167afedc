package cluster

import (
	"fmt"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
)

// LaunchConfig parameterizes an in-process cluster (what the benchmark
// harness and tests use; cmd/zipg-server runs the same Server as a
// standalone binary). It is one server's config: every server gets it,
// with ID set to its partition.
type LaunchConfig = ServerConfig

// Cluster is a set of in-process servers plus their addresses.
type Cluster struct {
	// Servers and Addrs hold each partition's first replica — every
	// server there is, at one replica per partition. Peer links for
	// function shipping go to these.
	Servers []*Server
	Addrs   []string

	// replicas[p][r] is replica r of partition p; addrs mirrors it.
	replicas [][]*Server
	addrs    [][]string
}

// Launch partitions the graph by node owner, builds one server per
// partition on a loopback port, and interconnects them.
func Launch(nodes []layout.Node, edges []layout.Edge, nodeSchema, edgeSchema *layout.PropertySchema, cfg LaunchConfig) (*Cluster, error) {
	return LaunchWithReplicas(nodes, edges, nodeSchema, edgeSchema, cfg, 1)
}

// LaunchWithReplicas is Launch with `replicas` identical copies of each
// partition (§4.1: replication-based fault tolerance; the client
// load-balances reads evenly across replicas).
func LaunchWithReplicas(nodes []layout.Node, edges []layout.Edge, nodeSchema, edgeSchema *layout.PropertySchema, cfg LaunchConfig, replicas int) (*Cluster, error) {
	if cfg.NumServers <= 0 {
		cfg.NumServers = 1
	}
	if replicas <= 0 {
		replicas = 1
	}
	partNodes, partEdges := Partition(nodes, edges, cfg.NumServers)
	c := &Cluster{
		replicas: make([][]*Server, cfg.NumServers),
		addrs:    make([][]string, cfg.NumServers),
	}
	for p := 0; p < cfg.NumServers; p++ {
		for r := 0; r < replicas; r++ {
			cfg.ID = p
			srv, err := NewServer(partNodes[p], partEdges[p], nodeSchema, edgeSchema, cfg)
			if err != nil {
				c.Close()
				return nil, err
			}
			c.replicas[p] = append(c.replicas[p], srv)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: listen partition %d replica %d: %w", p, r, err)
			}
			c.addrs[p] = append(c.addrs[p], addr)
		}
		c.Servers = append(c.Servers, c.replicas[p][0])
		c.Addrs = append(c.Addrs, c.addrs[p][0])
	}
	for _, reps := range c.replicas {
		for _, srv := range reps {
			srv.ConnectPeers(c.Addrs)
		}
	}
	return c, nil
}

// Client connects a new client to the cluster, aware of every replica.
func (c *Cluster) Client() (*Client, error) { return newClient(c.addrs) }

// Close shuts every server down.
func (c *Cluster) Close() {
	for _, reps := range c.replicas {
		for _, s := range reps {
			s.Close()
		}
	}
}

// StopReplica shuts down one replica (for failover tests).
func (c *Cluster) StopReplica(partition, replica int) {
	c.replicas[partition][replica].Close()
}

// Partition splits a node list by owner (exported for cmd/zipg-load).
func Partition(nodes []graphapi.Node, edges []graphapi.Edge, numServers int) ([][]graphapi.Node, [][]graphapi.Edge) {
	pn := make([][]graphapi.Node, numServers)
	pe := make([][]graphapi.Edge, numServers)
	for _, n := range nodes {
		o := OwnerOf(n.ID, numServers)
		pn[o] = append(pn[o], n)
	}
	for _, e := range edges {
		o := OwnerOf(e.Src, numServers)
		pe[o] = append(pe[o], e)
	}
	return pn, pe
}
