"""JSON serialization for training data and learned conventions.

The paper publicly releases both the training data and the inferred
regexes; this module provides the equivalent round-trippable formats so
conventions learned in one process can be applied in another (e.g. a
measurement host learns, an analysis host extracts).

Deserialized conventions are rebuilt with :meth:`Regex.raw`, so they
support matching and scoring; the structural element list (used only by
the learning phases) is not preserved, exactly as a regex published as
text would behave.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.core.evaluate import NCScore
from repro.core.hoiho import HoihoResult
from repro.core.regex_model import Regex
from repro.core.select import LearnedConvention, NCClass
from repro.core.types import TrainingItem


# -- training items ----------------------------------------------------------

def training_to_jsonl(items: Iterable[TrainingItem]) -> str:
    """One JSON object per line: {hostname, asn[, address]}."""
    lines = []
    for item in items:
        record = {"hostname": item.hostname, "asn": item.train_asn}
        if item.address is not None:
            record["address"] = item.address
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def training_from_jsonl(text: str) -> List[TrainingItem]:
    """Parse :func:`training_to_jsonl` output."""
    items: List[TrainingItem] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        record = json.loads(line)
        items.append(TrainingItem(hostname=record["hostname"],
                                  train_asn=int(record["asn"]),
                                  address=record.get("address")))
    return items


# -- learned conventions -----------------------------------------------------

def _score_to_dict(score: NCScore) -> Dict:
    return {"tp": score.tp, "fp": score.fp, "fn": score.fn,
            "matches": score.matches,
            "distinct_asns": sorted(score.distinct_asns)}


def _score_from_dict(raw: Dict) -> NCScore:
    score = NCScore(tp=raw["tp"], fp=raw["fp"], fn=raw["fn"],
                    matches=raw["matches"])
    score.distinct_asns = set(raw["distinct_asns"])
    return score


def conventions_to_json(result: HoihoResult) -> str:
    """Serialize a learning result (regexes as published text)."""
    payload = {
        "suffixes_examined": result.suffixes_examined,
        "conventions": [
            {
                "suffix": convention.suffix,
                "class": convention.nc_class.value,
                "regexes": convention.patterns(),
                "score": _score_to_dict(convention.score),
            }
            for _, convention in sorted(result.conventions.items())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def conventions_from_json(text: str) -> HoihoResult:
    """Parse :func:`conventions_to_json` output."""
    raw = json.loads(text)
    result = HoihoResult(suffixes_examined=raw.get("suffixes_examined", 0))
    for entry in raw.get("conventions", []):
        convention = LearnedConvention(
            suffix=entry["suffix"],
            regexes=tuple(Regex.raw(p) for p in entry["regexes"]),
            score=_score_from_dict(entry["score"]),
            nc_class=NCClass(entry["class"]))
        result.conventions[convention.suffix] = convention
    return result
