"""Exception hierarchy shared across the pipeline.

DataError covers everything wrong with input data (parsing, schema,
degenerate tables); TrainingError covers failures while fitting or
evaluating models. The CLI maps them to distinct exit codes.
"""


class CadmlError(Exception):
    pass


class DataError(CadmlError):
    pass


class TrainingError(CadmlError):
    pass


class WrongFieldCount(DataError):
    def __init__(self, line_no, expected, got):
        self.line_no = line_no
        self.expected = expected
        self.got = got
        super().__init__(f"line {line_no}: expected {expected} fields, got {got}")


class NonNumericCell(DataError):
    def __init__(self, line_no, column, value):
        self.line_no = line_no
        self.column = column
        self.value = value
        super().__init__(f"line {line_no}, column {column}: {value!r} "
                         "is neither '?' nor a finite number")


class DisallowedValue(DataError):
    def __init__(self, line_no, feature, value):
        self.line_no = line_no
        self.feature = feature
        self.value = value
        super().__init__(f"line {line_no}: {feature.name} value {value!r} is not one of "
                         f"{feature.allowed_values}")


class OutOfRangeTarget(DataError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"target value {value!r} outside 0..4")


class EmptyDataset(DataError):
    pass


class UnknownFeature(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown feature {name!r}")


class EmptyInput(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class LengthMismatch(DataError):
    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"expected length {expected}, got {got}")


class SingleClassData(TrainingError):
    pass


class TooFewRows(TrainingError):
    pass


class TooFewPerClass(TrainingError):
    def __init__(self, label, count, k):
        self.label = label
        self.count = count
        self.k = k
        super().__init__(f"class {label} has {count} rows, fewer than k={k} folds")


class AllCandidatesFailed(TrainingError):
    pass


class NotConverged(TrainingError):
    def __init__(self, C, sigma, steps):
        self.C = C
        self.sigma = sigma
        self.steps = steps
        super().__init__(f"the SVM with C={C!r}, sigma={sigma!r} did not converge "
                         f"in {steps} SMO steps")
