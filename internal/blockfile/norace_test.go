//go:build !race

package blockfile

// allocsPerBlock is the allocations a block-format scan may make per
// block: the one string its values are decoded into.
const allocsPerBlock = 1
