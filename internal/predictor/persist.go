package predictor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"qoserve/internal/profile"
)

// The paper trains one predictor per (model, hardware, parallelism)
// configuration from an offline profiling pass and ships it with the
// deployment. Save/Load provide that artifact, a compact little-endian
// binary encoding of the forest, so serving processes load it on start-up
// instead of profiling and training.
//
// Layout:
//
//	header: magic "QSRF", version uint32, margin float64, tree count uint32
//	tree:   node count uint32, then that many nodes
//	node:   feature uint8; leafTag marks a leaf, which stores its value
//	        float64; a split stores threshold float64, left uint32, right uint32
//
// Floats are stored as their IEEE-754 bits, so NaN and ±Inf thresholds and
// leaves round-trip exactly.

const (
	wireMagic   = "QSRF"
	wireVersion = 1
	leafTag     = 0xff

	headerSize = len(wireMagic) + 4 + 8 + 4
	leafSize   = 1 + 8
	splitSize  = 1 + 8 + 4 + 4
)

// Save writes the forest in the binary wire format.
func (f *Forest) Save(w io.Writer) error {
	size := headerSize
	for _, t := range f.trees {
		size += 4 + len(t.nodes)*splitSize
	}
	b := make([]byte, 0, size)
	b = append(b, wireMagic...)
	b = binary.LittleEndian.AppendUint32(b, wireVersion)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.margin))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.trees)))
	for _, t := range f.trees {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.nodes)))
		for _, n := range t.nodes {
			if n.feature < 0 {
				b = append(b, leafTag)
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.value))
				continue
			}
			b = append(b, byte(n.feature))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.threshold))
			b = binary.LittleEndian.AppendUint32(b, uint32(n.left))
			b = binary.LittleEndian.AppendUint32(b, uint32(n.right))
		}
	}
	_, err := w.Write(b)
	return err
}

var errTruncated = errors.New("predictor: forest truncated")

// Load reads a forest saved by Save, validating structural integrity
// (features in range, children after their parent and in range) so a
// corrupt file cannot cause an out-of-range read or an infinite Predict
// loop. Truncated input and trailing bytes are errors.
func Load(r io.Reader) (*Forest, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("predictor: reading forest: %w", err)
	}
	if len(b) < headerSize {
		return nil, errTruncated
	}
	if string(b[:len(wireMagic)]) != wireMagic {
		return nil, errors.New("predictor: not a forest file")
	}
	b = b[len(wireMagic):]
	if v := binary.LittleEndian.Uint32(b); v != wireVersion {
		return nil, fmt.Errorf("predictor: unsupported forest version %d", v)
	}
	margin := math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	if !(margin >= 0 && margin <= 1) {
		return nil, fmt.Errorf("predictor: margin %v outside [0,1]", margin)
	}
	ntrees := binary.LittleEndian.Uint32(b[12:])
	b = b[16:]
	if ntrees == 0 {
		return nil, errors.New("predictor: empty forest")
	}
	// Every tree takes at least its count and one leaf, so a count the
	// input cannot hold is rejected before it sizes an allocation.
	if uint64(ntrees) > uint64(len(b)/(4+leafSize)) {
		return nil, errTruncated
	}
	f := &Forest{margin: margin, trees: make([]*Tree, ntrees)}
	for ti := range f.trees {
		if len(b) < 4 {
			return nil, errTruncated
		}
		nnodes := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if nnodes == 0 {
			return nil, fmt.Errorf("predictor: tree %d has no nodes", ti)
		}
		if uint64(nnodes) > uint64(len(b)/leafSize) {
			return nil, errTruncated
		}
		nodes := make([]treeNode, nnodes)
		for i := range nodes {
			if len(b) < leafSize {
				return nil, errTruncated
			}
			feature := b[0]
			if feature == leafTag {
				nodes[i] = treeNode{feature: -1, value: math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))}
				b = b[leafSize:]
				continue
			}
			if len(b) < splitSize {
				return nil, errTruncated
			}
			if int(feature) >= profile.FeatureCount {
				return nil, fmt.Errorf("predictor: tree %d node %d: feature %d out of range", ti, i, feature)
			}
			left := binary.LittleEndian.Uint32(b[9:])
			right := binary.LittleEndian.Uint32(b[13:])
			if left <= uint32(i) || right <= uint32(i) || left >= nnodes || right >= nnodes {
				return nil, fmt.Errorf("predictor: tree %d node %d: child indices invalid", ti, i)
			}
			nodes[i] = treeNode{
				feature:   int(feature),
				threshold: math.Float64frombits(binary.LittleEndian.Uint64(b[1:])),
				left:      int32(left),
				right:     int32(right),
			}
			b = b[splitSize:]
		}
		f.trees[ti] = &Tree{nodes: nodes}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("predictor: %d trailing bytes after the forest", len(b))
	}
	f.finalize()
	return f, nil
}
