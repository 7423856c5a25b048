package dswp

// Chunk is the chunk size, for the tests that walk trip counts across its
// boundaries.
const Chunk = chunk
