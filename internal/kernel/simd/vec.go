package simd

import "math"

// maxLiteral is the largest quartic literal byte (encode.MaxQuartic);
// anything above it is a zero-run marker the literal loops must stop at.
// Redeclared here because simd sits below the encode package.
const maxLiteral = 242

func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

// AccMaxAbs is the unrolled form of the fused accumulate+|max| reduction:
// buf[i] += in[i] with a running max|buf| kept in 8 independent
// accumulator chains so the adds, the sign-mask abs, and the compares
// pipeline instead of serializing on one max register. buf must be at
// least as long as in. Bit-identical to the scalar kernel: after the sign
// mask every candidate is non-negative (or NaN, which loses every `>`),
// so the max reduction is exactly associative and any lane split yields
// the same bits.
func AccMaxAbs(buf, in []float32) float32 {
	n := len(in)
	buf = buf[:n]
	var m0, m1, m2, m3, m4, m5, m6, m7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		b := buf[i : i+8 : i+8]
		v := in[i : i+8 : i+8]
		s0 := b[0] + v[0]
		s1 := b[1] + v[1]
		s2 := b[2] + v[2]
		s3 := b[3] + v[3]
		s4 := b[4] + v[4]
		s5 := b[5] + v[5]
		s6 := b[6] + v[6]
		s7 := b[7] + v[7]
		b[0], b[1], b[2], b[3] = s0, s1, s2, s3
		b[4], b[5], b[6], b[7] = s4, s5, s6, s7
		if a := abs32(s0); a > m0 {
			m0 = a
		}
		if a := abs32(s1); a > m1 {
			m1 = a
		}
		if a := abs32(s2); a > m2 {
			m2 = a
		}
		if a := abs32(s3); a > m3 {
			m3 = a
		}
		if a := abs32(s4); a > m4 {
			m4 = a
		}
		if a := abs32(s5); a > m5 {
			m5 = a
		}
		if a := abs32(s6); a > m6 {
			m6 = a
		}
		if a := abs32(s7); a > m7 {
			m7 = a
		}
	}
	for ; i < n; i++ {
		s := buf[i] + in[i]
		buf[i] = s
		if a := abs32(s); a > m0 {
			m0 = a
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	if m4 > m0 {
		m0 = m4
	}
	if m5 > m0 {
		m0 = m5
	}
	if m6 > m0 {
		m0 = m6
	}
	if m7 > m0 {
		m0 = m7
	}
	return m0
}

// MaxAbs is the unrolled 8-chain |max| reduction, bit-identical to the
// scalar kernel by the same associativity argument as AccMaxAbs.
func MaxAbs(data []float32) float32 {
	n := len(data)
	var m0, m1, m2, m3, m4, m5, m6, m7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		v := data[i : i+8 : i+8]
		if a := abs32(v[0]); a > m0 {
			m0 = a
		}
		if a := abs32(v[1]); a > m1 {
			m1 = a
		}
		if a := abs32(v[2]); a > m2 {
			m2 = a
		}
		if a := abs32(v[3]); a > m3 {
			m3 = a
		}
		if a := abs32(v[4]); a > m4 {
			m4 = a
		}
		if a := abs32(v[5]); a > m5 {
			m5 = a
		}
		if a := abs32(v[6]); a > m6 {
			m6 = a
		}
		if a := abs32(v[7]); a > m7 {
			m7 = a
		}
	}
	for ; i < n; i++ {
		if a := abs32(data[i]); a > m0 {
			m0 = a
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	if m4 > m0 {
		m0 = m4
	}
	if m5 > m0 {
		m0 = m5
	}
	if m6 > m0 {
		m0 = m6
	}
	if m7 > m0 {
		m0 = m7
	}
	return m0
}

// AddScaledLiterals consumes a run of literal quartic bytes from body,
// accumulating tab[b] rows into dst 4 bytes (20 floats) per iteration,
// and returns the number of bytes consumed. It stops at the first
// zero-run marker byte (> maxLiteral) or when body or full groups of dst
// run out; the caller handles markers, partial tail groups, and resumes.
// Each consumed byte k does dst[5k+j] += tab[b][j] in index order, so the
// result is bit-identical to the scalar per-byte loop.
func AddScaledLiterals(tab *[256][5]float32, body []byte, dst []float32) int {
	nb := 0
	for nb+4 <= len(body) && (nb+4)*5 <= len(dst) {
		b0 := body[nb]
		b1 := body[nb+1]
		b2 := body[nb+2]
		b3 := body[nb+3]
		if b0 > maxLiteral || b1 > maxLiteral || b2 > maxLiteral || b3 > maxLiteral {
			break
		}
		d := dst[nb*5 : nb*5+20 : nb*5+20]
		r0, r1, r2, r3 := &tab[b0], &tab[b1], &tab[b2], &tab[b3]
		d[0] += r0[0]
		d[1] += r0[1]
		d[2] += r0[2]
		d[3] += r0[3]
		d[4] += r0[4]
		d[5] += r1[0]
		d[6] += r1[1]
		d[7] += r1[2]
		d[8] += r1[3]
		d[9] += r1[4]
		d[10] += r2[0]
		d[11] += r2[1]
		d[12] += r2[2]
		d[13] += r2[3]
		d[14] += r2[4]
		d[15] += r3[0]
		d[16] += r3[1]
		d[17] += r3[2]
		d[18] += r3[3]
		d[19] += r3[4]
		nb += 4
	}
	for nb < len(body) && (nb+1)*5 <= len(dst) {
		b := body[nb]
		if b > maxLiteral {
			break
		}
		d := dst[nb*5 : nb*5+5 : nb*5+5]
		r := &tab[b]
		d[0] += r[0]
		d[1] += r[1]
		d[2] += r[2]
		d[3] += r[3]
		d[4] += r[4]
		nb++
	}
	return nb
}

// SetScaledLiterals is the write (first-decode) form of
// AddScaledLiterals: dst[5k+j] = tab[b][j] instead of +=.
func SetScaledLiterals(tab *[256][5]float32, body []byte, dst []float32) int {
	nb := 0
	for nb+4 <= len(body) && (nb+4)*5 <= len(dst) {
		b0 := body[nb]
		b1 := body[nb+1]
		b2 := body[nb+2]
		b3 := body[nb+3]
		if b0 > maxLiteral || b1 > maxLiteral || b2 > maxLiteral || b3 > maxLiteral {
			break
		}
		d := dst[nb*5 : nb*5+20 : nb*5+20]
		r0, r1, r2, r3 := &tab[b0], &tab[b1], &tab[b2], &tab[b3]
		d[0] = r0[0]
		d[1] = r0[1]
		d[2] = r0[2]
		d[3] = r0[3]
		d[4] = r0[4]
		d[5] = r1[0]
		d[6] = r1[1]
		d[7] = r1[2]
		d[8] = r1[3]
		d[9] = r1[4]
		d[10] = r2[0]
		d[11] = r2[1]
		d[12] = r2[2]
		d[13] = r2[3]
		d[14] = r2[4]
		d[15] = r3[0]
		d[16] = r3[1]
		d[17] = r3[2]
		d[18] = r3[3]
		d[19] = r3[4]
		nb += 4
	}
	for nb < len(body) && (nb+1)*5 <= len(dst) {
		b := body[nb]
		if b > maxLiteral {
			break
		}
		d := dst[nb*5 : nb*5+5 : nb*5+5]
		r := &tab[b]
		d[0] = r[0]
		d[1] = r[1]
		d[2] = r[2]
		d[3] = r[3]
		d[4] = r[4]
		nb++
	}
	return nb
}
