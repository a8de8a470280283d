package stats

import "math"

// EntropyBits returns the Shannon entropy, in bits, of the distribution ps.
// Zero-probability entries contribute nothing (0·log 1/0 ≡ 0, as in the
// paper's H(X̂) definition). Negative entries are treated as zero; the
// distribution is not renormalized.
func EntropyBits(ps ...float64) float64 {
	var h float64
	for _, p := range ps {
		if p <= 0 {
			continue
		}
		h -= p * math.Log2(p)
	}
	return h
}

// BinaryEntropy returns H(p) = -p log p - (1-p) log(1-p) in bits, the
// entropy of an indicator variable such as the paper's X̂.
func BinaryEntropy(p float64) float64 {
	return EntropyBits(p, 1-p)
}

// ConditionalEntropyBits returns H(X | Q) in bits for a joint distribution
// joint[x][q] = P(X=x ∧ Q=q). It implements the conditional-entropy sum of
// Section V-A:
//
//	H(X|Q) = Σ_{x,q} P(X=x ∧ Q=q) · log 1/P(X=x | Q=q).
//
// Cells with zero joint probability contribute nothing.
func ConditionalEntropyBits(joint [][]float64) float64 {
	if len(joint) == 0 {
		return 0
	}
	nq := len(joint[0])
	// Marginal over Q.
	qm := make([]float64, nq)
	for _, row := range joint {
		for q, p := range row {
			qm[q] += p
		}
	}
	var h float64
	for _, row := range joint {
		for q, p := range row {
			if p <= 0 || qm[q] <= 0 {
				continue
			}
			cond := p / qm[q]
			h -= p * math.Log2(cond)
		}
	}
	return h
}

// ConditionalEntropyBits2x2 is ConditionalEntropyBits specialized to the
// binary joint [x][q] used by single-probe evaluation. It performs the
// identical floating-point operations in the identical order as the
// generic function (marginalize over rows first, then accumulate cells
// row-major), so results are bit-for-bit equal — it only avoids the
// slice-of-slice allocation on the probe-selection hot path.
func ConditionalEntropyBits2x2(joint [2][2]float64) float64 {
	qm0 := joint[0][0] + joint[1][0]
	qm1 := joint[0][1] + joint[1][1]
	var h float64
	if joint[0][0] > 0 && qm0 > 0 {
		h -= joint[0][0] * math.Log2(joint[0][0]/qm0)
	}
	if joint[0][1] > 0 && qm1 > 0 {
		h -= joint[0][1] * math.Log2(joint[0][1]/qm1)
	}
	if joint[1][0] > 0 && qm0 > 0 {
		h -= joint[1][0] * math.Log2(joint[1][0]/qm0)
	}
	if joint[1][1] > 0 && qm1 > 0 {
		h -= joint[1][1] * math.Log2(joint[1][1]/qm1)
	}
	return h
}

// ConditionalEntropyBits2x1 is ConditionalEntropyBits specialized to the
// single-column joint {{p0}, {p1}} — one decision-tree leaf's term of the
// §V-B sequence entropy. It performs the identical floating-point
// operations in the identical order as the generic function (the column
// marginal from zero, then each cell's term), so results are bit-for-bit
// equal without the slice-of-slice and marginal allocations.
func ConditionalEntropyBits2x1(p0, p1 float64) float64 {
	var qm float64
	qm += p0
	qm += p1
	var h float64
	if !(p0 <= 0 || qm <= 0) {
		h -= p0 * math.Log2(p0/qm)
	}
	if !(p1 <= 0 || qm <= 0) {
		h -= p1 * math.Log2(p1/qm)
	}
	return h
}
