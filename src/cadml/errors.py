"""Exception hierarchy shared across the pipeline.

DataError covers everything wrong with input data (parsing, schema,
degenerate tables); TrainingError covers failures while fitting or
evaluating models. The CLI maps them to distinct exit codes.
"""


class CadmlError(Exception):
    template = None  # if set, the message is formatted from the keyword fields

    def __init__(self, message=None, /, **fields):
        self.__dict__.update(fields)
        if self.template is not None:
            message = self.template.format(**fields)
        super().__init__(*(() if message is None else (message,)))


class DataError(CadmlError):
    pass


class TrainingError(CadmlError):
    pass


class WrongFieldCount(DataError):
    template = "line {line_no}: expected {expected} fields, got {got}"


class NonNumericCell(DataError):
    template = "line {line_no}, column {column}: {value!r} is neither '?' nor a finite number"


class DisallowedValue(DataError):
    template = ("line {line_no}: {feature.name} value {value!r} is not one of "
                "{feature.allowed_values}")


class OutOfRangeTarget(DataError):
    template = "line {line_no}: target value {value!r} outside 0..4"


class EmptyDataset(DataError):
    pass


class UnknownFeature(DataError):
    template = "unknown feature {name!r}"


class EmptyInput(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class LengthMismatch(DataError):
    template = "expected length {expected}, got {got}"


class SingleClassData(TrainingError):
    pass


class TooFewRows(TrainingError):
    pass


class TooFewPerClass(TrainingError):
    template = "class {label} has {count} rows, fewer than k={k} folds"


class AllCandidatesFailed(TrainingError):
    pass


class NotConverged(TrainingError):
    template = "the SVM with C={C!r}, sigma={sigma!r} did not converge in {steps} SMO steps"
