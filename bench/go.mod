// The benchmark is its own module so that it builds from its own build
// file; the module path sits under scalekv/ so it may import the
// store's internal packages, and the replace points at the checkout it
// measures.
module scalekv/bench

go 1.24

require scalekv v0.0.0

replace scalekv => ../
