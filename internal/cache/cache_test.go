package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// ctx is the background context every store call in these tests uses;
// cancellation behavior has its own test below.
var ctx = context.Background()

func TestMemoryPutGet(t *testing.T) {
	s := NewMemory()
	if _, ok, err := s.Get(ctx, key); err != nil || ok {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	if err := s.Put(ctx, key, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Get(ctx, key)
	if err != nil || !ok || string(data) != "hello" {
		t.Fatalf("Get = %q ok=%v err=%v", data, ok, err)
	}
	if err := s.Put(ctx, key, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if data, _, _ := s.Get(ctx, key); string(data) != "world" {
		t.Fatalf("overwrite lost: %q", data)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestMemoryIsolatesCallers: blobs must be copied on both Put and Get so
// neither side can mutate stored state.
func TestMemoryIsolatesCallers(t *testing.T) {
	s := NewMemory()
	in := []byte("abc")
	if err := s.Put(ctx, key, in); err != nil {
		t.Fatal(err)
	}
	in[0] = 'X'
	out, _, _ := s.Get(ctx, key)
	if string(out) != "abc" {
		t.Fatalf("Put did not copy: %q", out)
	}
	out[0] = 'Y'
	again, _, _ := s.Get(ctx, key)
	if string(again) != "abc" {
		t.Fatalf("Get did not copy: %q", again)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	stores := map[string]Store{"memory": NewMemory()}
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["disk"] = disk
	for name, s := range stores {
		for _, bad := range []string{"", "xyz", "../escape", "a/b", "ABC-DEF"} {
			if err := s.Put(ctx, bad, []byte("x")); err == nil {
				t.Errorf("%s: Put accepted key %q", name, bad)
			}
			if _, _, err := s.Get(ctx, bad); err == nil {
				t.Errorf("%s: Get accepted key %q", name, bad)
			}
		}
	}
}

func TestDiskPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ctx, key, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := s2.Get(ctx, key)
	if err != nil || !ok || string(data) != "durable" {
		t.Fatalf("reopened Get = %q ok=%v err=%v", data, ok, err)
	}
	if s2.Dir() != dir {
		t.Fatalf("Dir = %q", s2.Dir())
	}
}

// TestDiskLeavesNoTempFiles: the write-then-rename protocol must not
// leave temporaries behind on success.
func TestDiskLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(ctx, key, bytes.Repeat([]byte{'a'}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != key+".json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory contents: %v", names)
	}
}

// TestDiskIgnoresPartialForeignFiles: a missing blob is a miss, and an
// unrelated file in the directory does not disturb the store.
func TestDiskMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(ctx, key); err != nil || ok {
		t.Fatalf("miss = ok=%v err=%v", ok, err)
	}
}

func TestDiskConcurrentSameKey(t *testing.T) {
	s, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(ctx, key, []byte(strings.Repeat("v", 100))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	data, ok, err := s.Get(ctx, key)
	if err != nil || !ok || len(data) != 100 {
		t.Fatalf("Get after concurrent Put = %d bytes ok=%v err=%v", len(data), ok, err)
	}
}

// failingStore errors on every operation.
type failingStore struct{}

func (failingStore) Get(context.Context, string) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("broken")
}
func (failingStore) Put(context.Context, string, []byte) error { return fmt.Errorf("broken") }

func TestCountingStats(t *testing.T) {
	counted := NewCounting(NewMemory())
	if _, ok, err := counted.Get(ctx, key); ok || err != nil {
		t.Fatalf("Get on empty store = ok=%v err=%v", ok, err)
	}
	if err := counted.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if data, ok, err := counted.Get(ctx, key); !ok || err != nil || string(data) != "v" {
			t.Fatalf("Get after Put = %q ok=%v err=%v", data, ok, err)
		}
	}
	// An erroring layer counts as a miss, never a hit.
	broken := NewCounting(failingStore{})
	if _, _, err := broken.Get(ctx, key); err == nil {
		t.Fatal("failing store error swallowed")
	}
	if hits, misses, _ := broken.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("failing Get counted hits=%d misses=%d, want 0/1", hits, misses)
	}
	hits, misses, puts := counted.Stats()
	if hits != 3 || misses != 1 || puts != 1 {
		t.Fatalf("Stats = %d/%d/%d, want hits=3 misses=1 puts=1", hits, misses, puts)
	}
}
