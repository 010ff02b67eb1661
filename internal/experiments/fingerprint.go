package experiments

// fnvOffset is the FNV-1a 64-bit offset basis: the initial value of every
// schedule fingerprint.
const fnvOffset uint64 = 14695981039346656037

// fnvMix folds one whole 64-bit word into an FNV-1a fingerprint. hash/fnv
// folds bytes instead, which yields different values, so the pinned
// fingerprints depend on this word-wise form.
func fnvMix(fp, v uint64) uint64 { return (fp ^ v) * 1099511628211 }
