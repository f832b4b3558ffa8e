"""Reading back the CSV files that the CLI writes."""

import csv


def read_csv(path, expected_fields: list[str]) -> list[dict]:
    """The rows of a CSV file, after checking its header against ``expected_fields``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == expected_fields, \
            f"{path}: unexpected CSV schema {reader.fieldnames}"
        return list(reader)
