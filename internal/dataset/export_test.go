package dataset

import "io"

// ReadEntityCSV and ReadRatingCSV are LoadDir's readers without a row
// count, for this package's tests and for dataset_test's.
func ReadEntityCSV(r io.Reader, name string, kinds map[string]Kind) (*EntityTable, error) {
	return readEntityCSV(r, name, kinds, 0)
}

func ReadRatingCSV(r io.Reader, reviewers, items *EntityTable) (*RatingTable, error) {
	return readRatingCSV(r, reviewers, items, 0)
}
