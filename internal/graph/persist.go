package graph

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"trail/internal/ckpt"
)

// snapshot is the gob-serialisable form of a Graph. Edges are stored once
// in their forward (schema) direction, in a replay order: ReadFrom
// inserts them in sequence, so the deserialised rows match the writer's
// entry order bit-for-bit. That order-faithfulness is what lets the
// streaming ingest publish path hand a patched CSR snapshot straight to
// a deserialised clone (graph.AdoptCSR) instead of re-packing it.
type snapshot struct {
	Version int
	Nodes   []Node
	EdgeU   []NodeID
	EdgeV   []NodeID
	EdgeT   []EdgeType
}

const snapshotVersion = 1

// WriteTo serialises the graph to w in a compact gob snapshot. It
// implements the single-writer persistence model: the TKG is built (or
// updated) and then checkpointed atomically by the caller.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	g.mu.RLock()
	snap := snapshot{
		Version: snapshotVersion,
		Nodes:   append([]Node(nil), g.nodes...),
		EdgeU:   make([]NodeID, 0, g.edgeCount),
		EdgeV:   make([]NodeID, 0, g.edgeCount),
		EdgeT:   make([]EdgeType, 0, g.edgeCount),
	}
	g.rows.replayOrder(func(u, v NodeID, t EdgeType) {
		snap.EdgeU = append(snap.EdgeU, u)
		snap.EdgeV = append(snap.EdgeV, v)
		snap.EdgeT = append(snap.EdgeT, t)
	})
	edges := g.edgeCount
	g.mu.RUnlock()
	if len(snap.EdgeU) != edges {
		return 0, fmt.Errorf("graph: encode snapshot: replay order covers %d of %d edges", len(snap.EdgeU), edges)
	}

	cw := &countingWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(&snap); err != nil {
		return cw.n, fmt.Errorf("graph: encode snapshot: %w", err)
	}
	return cw.n, nil
}

// replayOrder calls emit once per edge, in forward orientation, in an
// order whose replay through AddEdge rebuilds every row entry-for-entry.
// Rows are append-only, so each row lists its edges in insertion order,
// and an edge may be replayed once it heads the unreplayed remainder of
// both its endpoints' rows. A Kahn-style queue seeded in node-ID order
// pops a node, emits edges off the head of its row while they are
// ready, and queues the partner of each emitted edge, whose head just
// moved: O(V+E) and deterministic. The true insertion history is one
// valid order, so some head is always ready until every edge is out
// (the earliest-inserted unreplayed edge heads both its rows). Matching
// a head to its partner entry relies on the store's invariants: no
// self-loops and at most one edge per (unordered pair, type).
func (s *rowStore) replayOrder(emit func(u, v NodeID, t EdgeType)) {
	n := len(s.end)
	head := slices.Clone(s.start[:n])
	queue := make([]NodeID, n, n+s.nnz/2) // n seeds + one re-queue per edge
	for i := range queue {
		queue[i] = NodeID(i)
	}
	for q := 0; q < len(queue); q++ {
		u := queue[q]
		for k := head[u]; k < s.end[u]; k = head[u] {
			v, m := NodeID(s.col[k]), s.meta[k]
			kv := head[v]
			if kv == s.end[v] || s.col[kv] != int32(u) || s.meta[kv] != m^fwdBit {
				break // v reaches this edge later and re-queues u then
			}
			head[u]++
			head[v]++
			if m.fwd() {
				emit(u, v, m.typ())
			} else {
				emit(v, u, m.typ())
			}
			queue = append(queue, v)
		}
	}
}

// ReadFrom replaces the contents of g with a snapshot previously written
// by WriteTo. Snapshots are validated as they are replayed: node IDs and
// kinds, edge endpoints and types must be in range, and self-loops or
// repeated (pair, type) edges — which AddEdge would never have stored —
// are rejected.
func (g *Graph) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	var snap snapshot
	if err := gob.NewDecoder(cr).Decode(&snap); err != nil {
		return cr.n, fmt.Errorf("graph: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return cr.n, fmt.Errorf("graph: unsupported snapshot version %d", snap.Version)
	}
	if len(snap.EdgeU) != len(snap.EdgeV) || len(snap.EdgeU) != len(snap.EdgeT) {
		return cr.n, fmt.Errorf("graph: corrupt snapshot: ragged edge arrays")
	}

	fresh := New()
	fresh.nodes = snap.Nodes
	for i := range fresh.nodes {
		n := &fresh.nodes[i]
		if n.ID != NodeID(i) {
			return cr.n, fmt.Errorf("graph: corrupt snapshot: node %d has ID %d", i, n.ID)
		}
		if n.Kind >= numKinds {
			return cr.n, fmt.Errorf("graph: corrupt snapshot: node %d has kind %d", i, n.Kind)
		}
		fresh.index[nodeRef{n.Kind, n.Key}] = n.ID
		fresh.kindCount[n.Kind]++
	}
	deg := make([]int, len(snap.Nodes))
	for i := range snap.EdgeU {
		u, v, t := snap.EdgeU[i], snap.EdgeV[i], snap.EdgeT[i]
		if u < 0 || v < 0 || int(u) >= len(deg) || int(v) >= len(deg) || t >= numEdgeTypes {
			return cr.n, fmt.Errorf("graph: corrupt snapshot: edge %d out of range", i)
		}
		if u == v {
			return cr.n, fmt.Errorf("graph: corrupt snapshot: edge %d is a self-loop on node %d", i, u)
		}
		deg[u]++
		deg[v]++
	}
	fresh.rows.layout(deg)
	for i := range snap.EdgeU {
		u, v, t := snap.EdgeU[i], snap.EdgeV[i], snap.EdgeT[i]
		if !fresh.addEdgeLocked(u, v, t) {
			return cr.n, fmt.Errorf("graph: corrupt snapshot: edge %d (%d-%d, %s) repeats an earlier edge", i, u, v, t)
		}
	}

	g.mu.Lock()
	g.nodes = fresh.nodes
	g.rows = fresh.rows
	g.index = fresh.index
	g.edgeCount = fresh.edgeCount
	g.kindCount = fresh.kindCount
	g.csr = nil
	g.mu.Unlock()
	return cr.n, nil
}

// CheckpointKind tags graph snapshots inside the checkpoint envelope.
const CheckpointKind = "graph.graph"

// Save writes the graph snapshot to path atomically inside the
// checksummed checkpoint envelope (temp file + fsync + rename; corruption
// and version skew are detected on load as the ckpt package's typed
// errors).
func (g *Graph) Save(path string) error {
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		return err
	}
	return ckpt.Save(path, CheckpointKind, snapshotVersion, buf.Bytes())
}

// Load reads a snapshot from path into a fresh graph, verifying envelope
// integrity first.
func Load(path string) (*Graph, error) {
	payload, err := ckpt.Load(path, CheckpointKind, snapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("graph: load: %w", err)
	}
	g := New()
	if _, err := g.ReadFrom(bytes.NewReader(payload)); err != nil {
		return nil, err
	}
	return g, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReadByte makes countingReader an io.ByteReader. Without it,
// encoding/gob wraps the reader in its own bufio.Reader, which reads
// ahead past the end of the graph's gob stream and silently consumes the
// first bytes of whatever the caller concatenated after it (the TKG
// snapshot stream) — a corruption that only bites when stream sizes
// line up badly, i.e. on small graphs.
func (c *countingReader) ReadByte() (byte, error) {
	if br, ok := c.r.(io.ByteReader); ok {
		b, err := br.ReadByte()
		if err == nil {
			c.n++
		}
		return b, err
	}
	var buf [1]byte
	if _, err := io.ReadFull(c.r, buf[:]); err != nil {
		return 0, err
	}
	c.n++
	return buf[0], nil
}
