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

// The CPU profile is folded into layers without the pprof tool: the
// benchmark decodes the few fields of the gzipped profile.proto it needs
// (samples, locations with their inlined lines, functions, strings).

const internalPrefix = "retri/internal/"

// foldProfile returns CPU nanoseconds per layer and in total. A sample's
// layer is the package of its innermost retri/internal/<pkg> frame, so a
// runtime or standard-library leaf (allocation, maps, math) is charged to
// the internal code that called it. Samples with no internal frame are
// "runtime.gc" when they sit under a background GC worker, "bench" when
// they sit in the benchmark's own code, and "other" otherwise.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("reading CPU profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1] // cpu nanoseconds
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("decoding CPU profile: %w", err)
	}
	name := func(fn uint64) string {
		if i, ok := fnName[fn]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	layers := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		layers[layerOf(s.locs, locFns, name)] += s.value
	}
	return layers, total, nil
}

func layerOf(locs []uint64, locFns map[uint64][]uint64, name func(uint64) string) string {
	gc := false
	for _, l := range locs {
		for _, fn := range locFns[l] {
			n := name(fn)
			switch {
			case strings.HasPrefix(n, internalPrefix):
				pkg := n[len(internalPrefix):]
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				return pkg
			case strings.HasPrefix(n, "main."):
				return "bench"
			case n == "runtime.gcBgMarkWorker" || n == "runtime.bgsweep" || n == "runtime.bgscavenge":
				gc = true
			}
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "other"
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto's fields used here have
// none.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, whether it was
// written unpacked (one varint v) or packed (a run of varints in b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
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
