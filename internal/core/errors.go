package core

import (
	"errors"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/pmem"
)

// Sentinel errors wrapped (with %w) by the failure paths of the store, so
// callers can branch on the failure class with errors.Is instead of matching
// message text. Package pmemcpy re-exports them as its public error surface.
var (
	// ErrNotFound reports that an id (or its dims companion, or any stored
	// block of it) does not exist in the store.
	ErrNotFound = errors.New("id not found")
	// ErrTypeMismatch reports that an id exists but holds a different
	// element or value type than the caller requested, or that a
	// redeclaration (Alloc) conflicts with the id's existing dims.
	ErrTypeMismatch = errors.New("type mismatch")
	// ErrOutOfBounds reports an invalid block selection: outside the
	// array's declared extent, rank-mismatched, or backed by a buffer too
	// small for the selection. It is nd.ErrOutOfBounds, so validation
	// errors raised inside the index arithmetic match it too.
	ErrOutOfBounds = nd.ErrOutOfBounds
	// ErrMedia reports an uncorrectable (injected) media error that outlasted
	// the device's retry/backoff budget. It is pmem.ErrMedia, so callers can
	// branch on the failure class without importing the device package.
	ErrMedia = pmem.ErrMedia
	// ErrCorrupt reports that stored bytes failed their CRC32C check — a
	// verified read, the scrubber, or a deep check found the medium returned
	// different bytes than were published — or that the block being read was
	// previously quarantined by the scrubber. The wrapping error identifies
	// the id, block, and pool offset. Mmap returns it for a namespace whose
	// pool header, set descriptor or hashtable header fails its checksum.
	ErrCorrupt = errors.New("data corruption detected")
	// ErrStaleView reports an access through a zero-copy view whose lease is
	// no longer valid: the view was closed, or the handle group it was taken
	// on has been unmapped (Munmap invalidates every outstanding view).
	ErrStaleView = errors.New("stale view")
)
