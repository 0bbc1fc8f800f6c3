package costir

import "repro/internal/pattern"

// CompareCanonical canonicalizes a and b into one tree and compares
// their canonical renderings with the tree's comparator, without
// rendering either. Both patterns must validate.
func CompareCanonical(a, b pattern.Pattern) (int, error) {
	if err := pattern.Validate(b); err != nil {
		return 0, err
	}
	cz, err := canonicalize(a)
	if err != nil {
		return 0, err
	}
	defer cz.release()
	ra := cz.root
	return cz.compare(ra, cz.canon(b)), nil
}
