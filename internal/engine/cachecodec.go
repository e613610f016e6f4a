package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// This file implements the cache's binary entry codec (format version 3).
// The entry holds every run's metrics in a fixed-width binary layout:
//
//	offset  size  field
//	0       4     magic "DLSB"
//	4       2     format version (uint16, = 3)
//	6       4     points (uint32)
//	10      4     replications (uint32)
//	14      2     spec-hash length (uint16), then the hash bytes
//	...           per-run records, (point, replication) order:
//	                Wasted, Makespan, Speedup (float64) + SchedOps
//	                (int64) — 32 bytes per run
//	end     8     FNV-1a 64 checksum of all preceding bytes
//
// All integers and float bit patterns are little-endian; floats are
// stored as their IEEE-754 bits, so every value (including -0, ±Inf and
// NaN payloads) round-trips bit-exactly — the property the replay path's
// bit-identical-aggregates guarantee rests on. The trailing checksum
// turns silent corruption (a flipped bit would otherwise decode into a
// plausible float) into a detected mismatch, which demotes the hit to a
// miss and falls back to a live run.
//
// The entry stores no aggregates: every hit replays the records through
// the delivery stage a live run uses, and by determinism the replayed
// aggregates are bit-identical to the producing run's. Any other content
// — including the version-1 JSON and version-2 entries of earlier builds
// — is a miss: the live run overwrites it, and the store only ever holds
// data derived from the spec.

const (
	// cacheBinaryVersion is the binary entry format this build writes.
	cacheBinaryVersion = 3

	headerSize    = 16 // magic, version, points, replications, hash length
	runRecordSize = 32 // Wasted, Makespan, Speedup, SchedOps
	checksumSize  = 8
)

var cacheMagic = [4]byte{'D', 'L', 'S', 'B'}

// putU64/putF64 append little-endian values; getU64/getF64 consume them.
func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
func putF64(b []byte, v float64) []byte {
	return putU64(b, math.Float64bits(v))
}
func getU64(b []byte) (uint64, []byte) {
	return binary.LittleEndian.Uint64(b), b[8:]
}
func getF64(b []byte) (float64, []byte) {
	v, rest := getU64(b)
	return math.Float64frombits(v), rest
}

// encodeCacheEntry renders the version-3 binary entry for a completed
// campaign: envelope, fixed-width per-run records, trailing checksum.
func encodeCacheEntry(key string, perRun [][]RunMetrics) []byte {
	points := len(perRun)
	reps := 0
	if points > 0 {
		reps = len(perRun[0])
	}
	b := make([]byte, 0, headerSize+len(key)+points*reps*runRecordSize+checksumSize)

	b = append(b, cacheMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, cacheBinaryVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(points))
	b = binary.LittleEndian.AppendUint32(b, uint32(reps))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	b = append(b, key...)

	for _, runs := range perRun {
		for _, m := range runs {
			b = putF64(b, m.Wasted)
			b = putF64(b, m.Makespan)
			b = putF64(b, m.Speedup)
			b = putU64(b, uint64(m.SchedOps))
		}
	}
	return putU64(b, checksum(b))
}

// checksum is FNV-1a 64 over the entry's bytes.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// decodeCacheEntry validates a cache blob against the spec it is
// supposed to answer and returns its per-run metrics in [point][rep]
// order — one flat backing array, no per-record allocation. Any mismatch
// — unknown format, version drift, stale hash, wrong grid shape,
// truncation, checksum failure — reports ok == false, demoting the hit
// to a miss (the caller then runs live and overwrites the entry).
func decodeCacheEntry(data []byte, key string, points, reps int) ([][]RunMetrics, bool) {
	if len(data) < headerSize+checksumSize || [4]byte(data[:4]) != cacheMagic {
		return nil, false
	}
	if got := binary.LittleEndian.Uint64(data[len(data)-checksumSize:]); got != checksum(data[:len(data)-checksumSize]) {
		return nil, false
	}
	body := data[:len(data)-checksumSize]
	if binary.LittleEndian.Uint16(body[4:6]) != cacheBinaryVersion ||
		int(binary.LittleEndian.Uint32(body[6:10])) != points ||
		int(binary.LittleEndian.Uint32(body[10:14])) != reps {
		return nil, false
	}
	hashLen := int(binary.LittleEndian.Uint16(body[14:16]))
	rest := body[headerSize:]
	if len(rest) < hashLen || string(rest[:hashLen]) != key {
		return nil, false
	}
	rest = rest[hashLen:]
	if len(rest) != points*reps*runRecordSize {
		return nil, false
	}

	flat := make([]RunMetrics, points*reps)
	for i := range flat {
		flat[i].Wasted, rest = getF64(rest)
		flat[i].Makespan, rest = getF64(rest)
		flat[i].Speedup, rest = getF64(rest)
		var u uint64
		u, rest = getU64(rest)
		flat[i].SchedOps = int64(u)
	}
	out := make([][]RunMetrics, points)
	for pi := range out {
		out[pi] = flat[pi*reps : (pi+1)*reps : (pi+1)*reps]
	}
	return out, true
}
