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

// moduleShares reads a CPU profile in pprof's protobuf format (gzipped, as
// runtime/pprof writes it) and returns each module's share of the profile's
// CPU time, attributed by the leaf frame of every sample (self time).
//
// A module is the first path element under zenspec/internal/ ("pipeline" for
// zenspec/internal/pipeline.(*Core).step, "harness" for
// zenspec/internal/harness/suite.build.func3); the facade package counts as
// "zenspec", Go runtime frames as "runtime", and everything else (standard
// library, the benchmark itself) as "other". The shares sum to 1 for a
// non-empty profile.
func moduleShares(data []byte) (map[string]float64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	// The CPU-time column when the profile has one ("cpu"/"nanoseconds"),
	// else the first (sample counts).
	col := 0
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" {
			col = i
		}
	}
	fnName := map[uint64]string{}
	for id, nameIdx := range p.functions {
		fnName[id] = p.str(nameIdx)
	}
	var total float64
	byMod := map[string]float64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || col >= len(s.values) {
			continue
		}
		v := float64(s.values[col])
		total += v
		// Location lines run from the innermost inlined function outwards,
		// so the leaf frame is the first line of the first location.
		leaf := ""
		if lines := p.locations[s.locs[0]]; len(lines) > 0 {
			leaf = fnName[lines[0]]
		}
		byMod[moduleOf(leaf)] += v
	}
	if total == 0 {
		return map[string]float64{}, nil
	}
	for m := range byMod {
		byMod[m] /= total
	}
	return byMod, nil
}

// moduleOf maps a fully qualified Go function name to its module bucket.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "zenspec/internal/"):
		rest := fn[len("zenspec/internal/"):]
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "zenspec."):
		return "zenspec"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profile is the part of a pprof Profile message the aggregation needs.
type profile struct {
	sampleTypes [][2]int64          // (type, unit) string-table indexes
	samples     []sample            // location IDs leaf first, one value per sample type
	locations   map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions   map[uint64]int64    // function ID -> name string-table index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the fields of perftools.profiles.Profile that
// moduleShares reads; unknown fields are skipped.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2: // sample
			var s sample
			err := eachField(msg, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(sub, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field occurrence: either one
// unpacked value (msg == nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

var errBadProto = errors.New("pprof: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value (msg == nil) or its length-delimited payload.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
	}
	return nil
}
