// Package dfs models the storage systems the simulated platforms load
// graphs from: an HDFS-like block-replicated distributed filesystem with
// locality-aware reads (used by the Giraph-like platform), and a shared
// network filesystem with a single contended server (used by the
// PowerGraph-like platform). Files carry sizes, not contents — the
// platforms hold real graph data in memory and use the filesystems only to
// account for I/O time, exactly the quantity Granula measures.
package dfs

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// defaultBlockSize is the HDFS block size in bytes (128 MB).
const defaultBlockSize = 128 << 20

// HDFSConfig parameterizes the distributed filesystem. Namenode
// metadata operations are free: at a few per worker and phase they moved
// no number the paper reports.
type HDFSConfig struct {
	BlockSize   int64
	Replication int
}

// DefaultHDFSConfig mirrors a stock HDFS deployment.
func DefaultHDFSConfig() HDFSConfig {
	return HDFSConfig{
		BlockSize:   defaultBlockSize,
		Replication: 3,
	}
}

// block is one replicated chunk of a file.
type block struct {
	Index    int
	Size     int64
	Replicas []int // node IDs holding a replica, primary first
}

// fileMeta is the namenode's record of one file.
type fileMeta struct {
	size   int64
	blocks []block
}

// HDFS is the distributed filesystem: block placement metadata plus
// accounting against the cluster's disks and NICs.
type HDFS struct {
	cluster *cluster.Cluster
	cfg     HDFSConfig
	files   map[string]*fileMeta
	// nextDN rotates block placement across datanodes.
	nextDN int
}

// NewHDFS creates an empty filesystem over the cluster's nodes (every node
// is a datanode).
func NewHDFS(c *cluster.Cluster, cfg HDFSConfig) *HDFS {
	if cfg.BlockSize <= 0 {
		panic("dfs: block size must be positive")
	}
	if cfg.Replication <= 0 {
		panic("dfs: replication must be positive")
	}
	if cfg.Replication > c.Size() {
		cfg.Replication = c.Size()
	}
	return &HDFS{cluster: c, cfg: cfg, files: map[string]*fileMeta{}}
}

// Exists reports whether path is present.
func (h *HDFS) Exists(path string) bool {
	_, ok := h.files[path]
	return ok
}

// Create registers a file of the given size without charging I/O time —
// used to seed datasets that exist before the measured job starts. Block
// replicas are placed round-robin.
func (h *HDFS) Create(path string, size int64) error {
	if size < 0 {
		return fmt.Errorf("dfs: negative size for %q", path)
	}
	if _, ok := h.files[path]; ok {
		return fmt.Errorf("dfs: file %q already exists", path)
	}
	meta := &fileMeta{size: size}
	remaining := size
	idx := 0
	for remaining > 0 || (size == 0 && idx == 0) {
		bs := h.cfg.BlockSize
		if remaining < bs {
			bs = remaining
		}
		replicas := make([]int, 0, h.cfg.Replication)
		for r := 0; r < h.cfg.Replication; r++ {
			replicas = append(replicas, (h.nextDN+r)%h.cluster.Size())
		}
		h.nextDN = (h.nextDN + 1) % h.cluster.Size()
		meta.blocks = append(meta.blocks, block{Index: idx, Size: bs, Replicas: replicas})
		remaining -= bs
		idx++
		if size == 0 {
			break
		}
	}
	h.files[path] = meta
	return nil
}

// Write writes a new file of the given size from the given node, charging
// the namenode round-trip, the local or remote transfer of every block,
// and the disk write on each replica in the pipeline.
func (h *HDFS) Write(p *sim.Proc, from *cluster.Node, path string, size int64) error {
	if err := h.Create(path, size); err != nil {
		return err
	}
	meta := h.files[path]
	for _, b := range meta.blocks {
		for _, nodeID := range b.Replicas {
			dst := h.cluster.Node(nodeID)
			h.cluster.Transfer(p, from, dst, float64(b.Size))
			dst.WriteLocal(p, float64(b.Size))
		}
	}
	return nil
}

// Split is a byte range of a file with the nodes that hold its blocks
// locally — the unit handed to one input-loading worker.
type Split struct {
	Path   string
	Offset int64
	Length int64
	// Hosts are node IDs holding all blocks of the split (intersection of
	// block replica sets; may be empty for multi-block splits).
	Hosts []int
}

// Splits partitions the file into k contiguous splits along block
// boundaries where possible, mimicking Hadoop's FileInputFormat.
func (h *HDFS) Splits(path string, k int) ([]Split, error) {
	f, ok := h.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	if k <= 0 {
		return nil, fmt.Errorf("dfs: split count must be positive, got %d", k)
	}
	splits := make([]Split, 0, k)
	per := f.size / int64(k)
	rem := f.size % int64(k)
	offset := int64(0)
	for i := 0; i < k; i++ {
		length := per
		if int64(i) < rem {
			length++
		}
		s := Split{Path: path, Offset: offset, Length: length}
		s.Hosts = h.hostsFor(f, offset, length)
		splits = append(splits, s)
		offset += length
	}
	return splits, nil
}

// hostsFor intersects the replica sets of all blocks covering the range.
func (h *HDFS) hostsFor(f *fileMeta, offset, length int64) []int {
	if length == 0 {
		return nil
	}
	var hosts map[int]bool
	blockStart := int64(0)
	for _, b := range f.blocks {
		blockEnd := blockStart + b.Size
		if blockEnd > offset && blockStart < offset+length {
			set := map[int]bool{}
			for _, r := range b.Replicas {
				set[r] = true
			}
			if hosts == nil {
				hosts = set
			} else {
				for n := range hosts {
					if !set[n] {
						delete(hosts, n)
					}
				}
			}
		}
		blockStart = blockEnd
	}
	out := make([]int, 0, len(hosts))
	for n := range hosts {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// ReadSplit reads a split from the given node: local disk reads for
// locally-replicated blocks, remote disk + network transfer otherwise.
// It returns the number of bytes that were read locally, so callers can
// report data locality.
func (h *HDFS) ReadSplit(p *sim.Proc, at *cluster.Node, s Split) (localBytes int64, err error) {
	f, ok := h.files[s.Path]
	if !ok {
		return 0, fmt.Errorf("dfs: no such file %q", s.Path)
	}
	blockStart := int64(0)
	for _, b := range f.blocks {
		blockEnd := blockStart + b.Size
		lo := max64(blockStart, s.Offset)
		hi := min64(blockEnd, s.Offset+s.Length)
		if hi > lo {
			n := hi - lo
			if containsInt(b.Replicas, at.ID) {
				at.ReadLocal(p, float64(n))
				localBytes += n
			} else {
				src := h.cluster.Node(b.Replicas[0])
				src.ReadLocal(p, float64(n))
				h.cluster.Transfer(p, src, at, float64(n))
			}
		}
		blockStart = blockEnd
	}
	return localBytes, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
