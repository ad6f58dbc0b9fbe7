//go:build race

package blockfile

// allocsPerBlock is the allocations a block-format scan may make per
// block. The race detector adds one: the first record's comparison
// with the index entry copies its bytes, a conversion the compiler
// otherwise elides.
const allocsPerBlock = 2
