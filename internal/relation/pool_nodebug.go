//go:build !pooldebug

package relation

// batchDebug is empty unless the binary is built with -tags pooldebug, in
// which case pool_pooldebug.go swaps in a double-Put / use-after-Put
// detector. Here it takes no space and the hooks cost nothing.
type batchDebug struct{}

func debugGet(*Batch) {}
func debugPut(*Batch) {}
