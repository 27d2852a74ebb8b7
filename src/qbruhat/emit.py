"""The one writer of the JSON documents the package prints."""

import json


def json_document(doc):
    """The text of one JSON document: two-space indents and sorted keys,
    so equal documents are equal bytes."""
    return json.dumps(doc, indent=2, sort_keys=True)
