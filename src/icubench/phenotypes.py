"""The 25 phenotype categories and the ICD-9 code mapping that feeds them.

The category list (13 acute, 7 chronic, 5 mixed) is a fixed constant; the
code-to-category assignment is site data and is consumed from a plain text
file with one ``code,category_index`` line per ICD-9 code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from string import whitespace
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .schema import parse_int

ACUTE = "acute"
CHRONIC = "chronic"
MIXED = "mixed"

PHENOTYPE_CATEGORIES: tuple[tuple[str, str], ...] = (
    ("Respiratory failure; insufficiency; arrest", ACUTE),
    ("Fluid and electrolyte disorders", ACUTE),
    ("Septicemia", ACUTE),
    ("Acute and unspecified renal failure", ACUTE),
    ("Pneumonia", ACUTE),
    ("Acute cerebrovascular disease", ACUTE),
    ("Acute myocardial infarction", ACUTE),
    ("Gastrointestinal hemorrhage", ACUTE),
    ("Shock", ACUTE),
    ("Pleurisy; pneumothorax; pulmonary collapse", ACUTE),
    ("Other lower respiratory disease", ACUTE),
    ("Complications of surgical", ACUTE),
    ("Other upper respiratory disease", ACUTE),
    ("Hypertension with complications", CHRONIC),
    ("Essential hypertension", CHRONIC),
    ("Chronic kidney disease", CHRONIC),
    ("Chronic obstructive pulmonary disease", CHRONIC),
    ("Disorders of lipid metabolism", CHRONIC),
    ("Coronary atherosclerosis and related", CHRONIC),
    ("Diabetes mellitus without complication", CHRONIC),
    ("Cardiac dysrhythmias", MIXED),
    ("Congestive heart failure; non hypertensive", MIXED),
    ("Diabetes mellitus with complications", MIXED),
    ("Other liver diseases", MIXED),
    ("Conduction disorders", MIXED),
)

N_PHENOTYPES = len(PHENOTYPE_CATEGORIES)


def normalize_code(code: str) -> str:
    return code.strip().upper()


@dataclass(frozen=True)
class PhenotypeCatalog:
    """Ordered category names plus an injective ICD-9 code map."""

    code_map: Mapping[str, int] = field(default_factory=dict)

    def label_mask(self, codes: Iterable[str]) -> np.ndarray:
        """25-bit mask with bit n set iff any code maps to category n."""
        mask = np.zeros(N_PHENOTYPES, dtype=np.uint8)
        for code in codes:
            idx = self.code_map.get(normalize_code(code))
            if idx is not None:
                mask[idx] = 1
        return mask

    @classmethod
    def from_file(cls, path) -> "PhenotypeCatalog":
        """Load ``code,category_index`` lines; a header line is tolerated.
        Only ASCII whitespace is stripped, and the index is read by the number
        rule (schema.parse_int), so ``２``, ``1_0`` or ``7\u00a0`` is a bad
        index, and a first line whose index does not read is the header.

        A code appearing under two different categories is a data error
        (the assignment must be a function).
        """
        code_map: dict[str, int] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read phenotype map {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip(whitespace)
            if not line or line.startswith("#"):
                continue
            parts = [p.strip(whitespace) for p in line.split(",")]
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'code,category_index'")
            code, idx_text = parts
            try:
                idx = parse_int(idx_text)
            except ValueError as exc:
                if lineno == 1:
                    continue  # header row
                raise DataError(f"{path}:{lineno}: bad category index {idx_text!r}") from exc
            if not 0 <= idx < N_PHENOTYPES:
                raise DataError(f"{path}:{lineno}: category index {idx} out of range")
            code = normalize_code(code)
            if code_map.get(code, idx) != idx:
                raise DataError(f"{path}:{lineno}: code {code} mapped to two categories")
            code_map[code] = idx
        return cls(code_map=code_map)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("icd9code,category_index\n")
            for code in sorted(self.code_map):
                fh.write(f"{code},{self.code_map[code]}\n")
