//go:build !race && !pooldebug

package serve

// exactAllocs reports a build in which allocation counts are exact (see
// inexactallocs_test.go).
const exactAllocs = true
