package server

// CRC32-C combination: given crc(A), crc(B) and len(B), compute
// crc(A||B) without touching the bytes of either part. This is the
// zlib crc32_combine construction — appending len(B) zero bytes to A
// is a linear operator over GF(2), representable as a 32×32 bit
// matrix; crc(A||B) = zeros(len(B))·crc(A) ⊕ crc(B).
//
// The wire path uses it to stamp a frame's payload trailer from the
// cache's stored per-blob CRC plus the CRC of the 33-byte read
// metadata prefix (cacheability, cost, expiry, signature), so warm
// hits never re-scan the body. zlib's formulation squares matrices on
// every call; since combine runs per response here, the power-of-two
// operators are built once at init and a call is just one matrix·vector
// product per set bit of the length.

// crcZeroOps[k] is the operator for appending 2^k zero bytes,
// reflected CRC-32C polynomial. 48 entries cover lengths well past
// maxFramePayload.
var crcZeroOps [48][32]uint32

func init() {
	// op for one zero *bit*: row n is the image of the basis vector
	// with bit n set. In the reflected representation, shifting in a
	// zero bit maps bit n to bit n-1, and bit 0 folds into the
	// polynomial.
	var op [32]uint32
	op[0] = 0x82f63b78 // CRC-32C, reflected
	for n := 1; n < 32; n++ {
		op[n] = 1 << (n - 1)
	}
	gf2MatrixSquare(&op, &op) // 2 bits
	gf2MatrixSquare(&op, &op) // 4 bits
	gf2MatrixSquare(&op, &op) // 8 bits = 1 byte
	crcZeroOps[0] = op
	for k := 1; k < len(crcZeroOps); k++ {
		gf2MatrixSquare(&crcZeroOps[k], &crcZeroOps[k-1])
	}
}

// gf2MatrixTimes multiplies the operator matrix by a bit vector.
func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; vec >>= 1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		i++
	}
	return sum
}

// gf2MatrixSquare sets dst = mat·mat. dst and mat may alias.
func gf2MatrixSquare(dst, mat *[32]uint32) {
	var sq [32]uint32
	for n := 0; n < 32; n++ {
		sq[n] = gf2MatrixTimes(mat, mat[n])
	}
	*dst = sq
}

// crc32Combine returns the CRC-32C of A||B given crc(A), crc(B) and
// len(B) in bytes.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	for k := 0; len2 != 0; len2 >>= 1 {
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&crcZeroOps[k], crc1)
		}
		k++
	}
	return crc1 ^ crc2
}
