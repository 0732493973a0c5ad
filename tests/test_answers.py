"""Every row of the answer table (tests/answers.json) prints what it did
when the table was written."""

import json

from . import answers


def test_every_answer_is_unchanged(tmp_path):
    table = json.loads(answers.TABLE.read_text())
    answers.write_fixtures(table, tmp_path)
    reports = answers.mismatches(table, tmp_path)
    assert not reports, "\n\n".join(reports)
