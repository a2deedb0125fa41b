package pds

// chunked is a growable array that never moves an element. It grows by
// whole chunks of 1<<shift elements and keeps element i at slot
// i&(1<<shift-1) of chunk i>>shift, so growing it copies only the chunk
// directory, and a pointer to an element stays valid for the array's life.
// The state table, the on-the-fly span tables and the early-accept marks
// are chunked: each is indexed by a dense number that a saturation keeps
// raising, and doubling a flat array copied it about twice over.
type chunked[T any] struct {
	chunks [][]T
	shift  uint
}

// at returns element i, which must be below the grown length.
func (c *chunked[T]) at(i int) *T {
	return &c.chunks[i>>c.shift][i&(1<<c.shift-1)]
}

// grow adds zeroed chunks until the array holds at least n elements.
func (c *chunked[T]) grow(n int) {
	for len(c.chunks)<<c.shift < n {
		c.chunks = append(c.chunks, make([]T, 1<<c.shift))
	}
}

// length is the number of elements the allocated chunks hold.
func (c *chunked[T]) length() int { return len(c.chunks) << c.shift }
