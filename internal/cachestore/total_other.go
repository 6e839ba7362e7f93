//go:build !unix

package cachestore

import (
	"errors"
	"os"
)

// lockFile reports that f cannot be locked here: the Store keeps its own
// total (see lockTotal).
func lockFile(*os.File) error { return errors.ErrUnsupported }
