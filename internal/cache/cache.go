// Package cache implements the content-addressed result store behind
// repeated campaigns. Keys are canonical hashes of a declarative
// campaign spec (engine.CampaignSpec.Hash); because campaign results are
// bit-deterministic for a given spec, equal keys imply equal results and
// a hit can be served without re-simulation.
//
// Two stores are provided — a process-local Memory store, which never
// evicts, and an on-disk Disk store with atomic writes — plus a Counting
// wrapper for hit/miss/put counters. A process opens exactly one store;
// nothing layers one over another. All stores are safe for concurrent
// use.
package cache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Store is a content-addressed blob store. Get reports a miss with
// ok == false and no error; errors are reserved for real failures
// (I/O, invalid keys, cancelled contexts). All methods take a context
// so remote or slow stores can be abandoned mid-operation; the built-in
// stores check it once before touching their medium.
type Store interface {
	// Get returns the blob stored under key, if any.
	Get(ctx context.Context, key string) (data []byte, ok bool, err error)
	// Put stores the blob under key, overwriting any previous value.
	Put(ctx context.Context, key string, data []byte) error
}

// validKey reports whether key is usable as a content address by every
// store: non-empty hex-like names that cannot escape a directory.
func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("cache: empty key")
	}
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		default:
			return fmt.Errorf("cache: key %q is not a hex digest", key)
		}
	}
	return nil
}

// Memory is an in-process store.
type Memory struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{m: make(map[string][]byte)} }

// Get implements Store.
func (s *Memory) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, true, nil
}

// Put implements Store. The blob is copied; callers may reuse data.
func (s *Memory) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := validKey(key); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

// Len returns the number of stored blobs.
func (s *Memory) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Disk is an on-disk store: one file per key under a root directory.
// Writes go through a temporary file and rename, so readers never
// observe partial blobs and concurrent writers of the same key are safe.
type Disk struct {
	dir string
}

// NewDisk returns a disk store rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Disk) Dir() string { return s.dir }

func (s *Disk) path(key string) string { return filepath.Join(s.dir, key+".json") }

// Get implements Store.
func (s *Disk) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	return data, true, nil
}

// Put implements Store.
func (s *Disk) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := validKey(key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// Counting wraps a Store and counts hits, misses and puts — cheap
// observability for cache-sensitive paths (a warm-store shard
// resubmission should be all hits and zero backend runs, and the
// counters are how benchmarks and tests prove it). Safe for concurrent
// use; errors count as misses.
type Counting struct {
	inner Store

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

// NewCounting wraps inner with hit/miss/put counters.
func NewCounting(inner Store) *Counting { return &Counting{inner: inner} }

// Get implements Store.
func (s *Counting) Get(ctx context.Context, key string) ([]byte, bool, error) {
	data, ok, err := s.inner.Get(ctx, key)
	if ok && err == nil {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return data, ok, err
}

// Put implements Store.
func (s *Counting) Put(ctx context.Context, key string, data []byte) error {
	s.puts.Add(1)
	return s.inner.Put(ctx, key, data)
}

// Stats returns the counters' current values.
func (s *Counting) Stats() (hits, misses, puts int64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}
