package dfs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// SharedStore models a shared network filesystem (NFS-style): one file
// table, all traffic funneled through the cluster's shared-storage
// service. This is what the PowerGraph-like platform loads from, and its
// single contended server is what makes sequential loading so visible in
// the paper's Figure 7.
type SharedStore struct {
	cluster *cluster.Cluster
	files   map[string]int64
}

// NewSharedStore returns an empty shared filesystem over the cluster.
func NewSharedStore(c *cluster.Cluster) *SharedStore {
	return &SharedStore{cluster: c, files: map[string]int64{}}
}

// Create registers a file of the given size without charging I/O time.
func (s *SharedStore) Create(path string, size int64) error {
	if size < 0 {
		return fmt.Errorf("dfs: negative size for %q", path)
	}
	if _, ok := s.files[path]; ok {
		return fmt.Errorf("dfs: file %q already exists", path)
	}
	s.files[path] = size
	return nil
}

// Exists reports whether path is present.
func (s *SharedStore) Exists(path string) bool {
	_, ok := s.files[path]
	return ok
}

// Size returns the file size, or an error if absent.
func (s *SharedStore) Size(path string) (int64, error) {
	sz, ok := s.files[path]
	if !ok {
		return 0, fmt.Errorf("dfs: no such file %q", path)
	}
	return sz, nil
}

// Read reads length bytes of path from node at, contending on the shared
// server's aggregate bandwidth.
func (s *SharedStore) Read(p *sim.Proc, at *cluster.Node, path string, length int64) error {
	sz, ok := s.files[path]
	if !ok {
		return fmt.Errorf("dfs: no such file %q", path)
	}
	if length < 0 || length > sz {
		return fmt.Errorf("dfs: read of %d bytes beyond size %d of %q", length, sz, path)
	}
	at.ReadShared(p, float64(length))
	return nil
}

// Write writes a new file of the given size from node at.
func (s *SharedStore) Write(p *sim.Proc, at *cluster.Node, path string, size int64) error {
	if err := s.Create(path, size); err != nil {
		return err
	}
	at.WriteShared(p, float64(size))
	return nil
}
