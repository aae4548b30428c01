package store

// The record framing, for the external tests of package store_test.
var (
	OpenFrame = openFrame
	SealFrame = sealFrame
)
