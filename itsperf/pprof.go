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

// profPackages are the layers whose self time the traced run reports as
// prof.<pkg>. Every other function counts as prof.other.
var profPackages = []string{
	"workload", "trace", "exec", "cache", "pagetable", "kernel", "preexec",
	"prefetch", "policy", "sim", "smp", "cluster", "runtime",
}

// cpuProfile is a decoded runtime/pprof CPU profile: one stack per sample,
// leaf first, with inlined frames expanded.
type cpuProfile struct {
	stacks  [][]string
	weights []int64 // sample count of each stack
}

// decodeProfile reads a gzip-compressed profile.proto message using only
// the standard library. Fields used (profile.proto numbering): Profile 2
// sample, 4 location, 5 function, 6 string_table; Sample 1 location_id,
// 2 value; Location 1 id, 4 line; Line 1 function_id; Function 1 id,
// 2 name.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs     []uint64
		value    int64 // the first sample value: the sample count
		hasValue bool
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			var s sample
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := uints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := uints(wire, v, b)
					if len(vals) > 0 && !s.hasValue {
						s.value, s.hasValue = int64(vals[0]), true
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return fields(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := fields(b, func(num int, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := "?"
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				stack = append(stack, name)
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, s.value)
	}
	return p, nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, and the varint value (wire type 0) or
// payload bytes (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
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
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// uints decodes a repeated integer field that may be packed (wire type 2)
// or a single unpacked varint (wire type 0).
func uints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	if wire != 2 {
		return nil, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// pkgOf names the layer a function belongs to: the last element of its
// package path for this module's packages, "runtime" for the Go runtime,
// and "other" for everything else.
func pkgOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	const mod = "itsim/internal/"
	if !strings.HasPrefix(fn, mod) {
		return "other"
	}
	rest := fn[len(mod):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, p := range profPackages {
		if p == rest {
			return p
		}
	}
	return "other"
}

// selfShares returns each layer's share of the samples whose leaf frame
// is in it; "other" takes the rest, so the shares sum to 1.
func (p *cpuProfile) selfShares() map[string]float64 {
	out := make(map[string]float64, len(profPackages)+1)
	for _, k := range profPackages {
		out[k] = 0
	}
	out["other"] = 0
	total := p.total()
	if total == 0 {
		return out
	}
	for i, st := range p.stacks {
		k := "other"
		if len(st) > 0 {
			k = pkgOf(st[0])
		}
		out[k] += float64(p.weights[i])
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out
}

// cumShare returns the share of samples with fn anywhere on the stack.
func (p *cpuProfile) cumShare(fn string) float64 {
	total := p.total()
	if total == 0 {
		return 0
	}
	var hit int64
	for i, st := range p.stacks {
		for _, f := range st {
			if f == fn {
				hit += p.weights[i]
				break
			}
		}
	}
	return float64(hit) / float64(total)
}

func (p *cpuProfile) total() int64 {
	var t int64
	for _, w := range p.weights {
		t += w
	}
	return t
}
