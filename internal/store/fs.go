package store

import (
	"path/filepath"

	"repro/internal/vfs"
)

// File and OSFS name vfs's types under their old package for the
// benchmark module, which compiles against them (ROADMAP item 14).
type (
	File = vfs.File
	OSFS = vfs.OSFS
)

// join builds FS paths; all store paths go through it so the FS
// implementations see consistent separators.
func join(elem ...string) string { return filepath.Join(elem...) }
