package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are this repository's modules, in report order. A sample whose
// leaf frame's source file sits in internal/<layer> (or a directory below
// it, such as splitc/apps or kv/load) counts as that layer's self time. The
// file decides, not the symbol: a closure a layer returns, such as a NAS
// kernel, is compiled under its caller's package name when inlined there.
var layers = []string{"sim", "hw", "am", "mpl", "mpi", "mpif", "splitc", "nas", "kv", "ring"}

// fold reads a gzipped pprof CPU profile and counts its samples by the
// layer of the leaf frame. The Go runtime is split by what its stack is
// doing: "go.gc" (a garbage-collector frame is on the stack), "go.sched"
// (a scheduler or channel frame is), and "go.other" (allocation, copying,
// maps). Every other package folds into "other". The counts add up to the
// total, which fold returns alongside.
func fold(profile []byte) (map[string]int64, int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		var stack []frame
		for _, l := range s.locs {
			stack = append(stack, p.locs[l]...)
		}
		counts[classify(stack)] += s.vals[0]
		total += s.vals[0]
	}
	return counts, total, nil
}

// frame is one function on a sampled stack and its source file.
type frame struct{ fn, file string }

// classify names the bucket of one sample's stack, leaf first.
func classify(stack []frame) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := funcPackage(stack[0].fn)
	if pkg == "main" || strings.HasPrefix(pkg, "spam/") {
		file := stack[0].file
		if i := strings.LastIndex(file, "/internal/"); i >= 0 {
			l, _, _ := strings.Cut(file[i+len("/internal/"):], "/")
			for _, name := range layers {
				if l == name {
					return l
				}
			}
		}
		return "other"
	}
	if !isRuntime(pkg) {
		return "other"
	}
	for _, f := range stack {
		if isGC(f.fn) {
			return "go.gc"
		}
	}
	for _, f := range stack {
		if schedFuncs[f.fn] {
			return "go.sched"
		}
	}
	return "go.other"
}

// funcPackage returns the import path of a symbol such as
// "spam/internal/am.(*Endpoint).Poll" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject",
		"runtime.scanstack", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.deductSweepCredit",
		"runtime._GC", "runtime.GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// schedFuncs mark a runtime sample as goroutine switching: parking,
// waking, channel hand-off, and the scheduler loop with its OS waits.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.mcall": true, "runtime.gosched_m": true, "runtime.goexit0": true,
	"runtime.newproc": true, "runtime.chansend": true, "runtime.chanrecv": true,
	"runtime.chansend1": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.selectgo": true, "runtime.selectnbrecv": true, "runtime.selectnbsend": true,
	"runtime.closechan": true, "runtime.stopm": true, "runtime.startm": true,
	"runtime.wakep": true, "runtime.sysmon": true, "runtime.mstart": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.lock2": true,
	"runtime.unlock2": true, "runtime.casgstatus": true, "runtime.gogo": true,
}

// profile is the part of a pprof profile fold needs: each sample's
// location ids (leaf first) and values, and each location's frames
// (innermost inlined frame first).
type profile struct {
	samples []sample
	locs    map[uint64][]frame
}

type sample struct {
	locs []uint64
	vals []int64
}

// parseProfile decodes the profile.proto message runtime/pprof writes.
// Field numbers: Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2, filename=4}.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{}
	funcNames := map[uint64][2]int64{} // function id -> name, file string ids
	var strs []string
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name [2]int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name[0] = int64(v)
				case 4:
					name[1] = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locs: map[uint64][]frame{}}
	for id, fns := range locFuncs {
		for _, fid := range fns {
			i := funcNames[fid]
			if i[0] < 0 || i[0] >= int64(len(strs)) || i[1] < 0 || i[1] >= int64(len(strs)) {
				return nil, fmt.Errorf("profile: function %d names strings %v of %d", fid, i, len(strs))
			}
			p.locs[id] = append(p.locs[id], frame{strs[i[0]], strs[i[1]]})
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// fields walks one protobuf message, calling fn with each field's number
// and its varint value or length-delimited bytes.
func fields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b, non-nil) on the wire; runtime/pprof writes both forms.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
