//! Service descriptions: the introspection half of the unified REST API.

use std::error::Error;
use std::fmt;

use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};

/// One named input or output parameter of a computational service.
///
/// # Examples
///
/// ```
/// use mathcloud_core::Parameter;
/// use mathcloud_json::Schema;
///
/// let p = Parameter::new("matrix", Schema::string().format("mc-file"))
///     .describe("the input matrix in MathCloud text form");
/// assert_eq!(p.name(), "matrix");
/// assert!(!p.is_optional());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    name: String,
    schema: Schema,
    optional: bool,
}

impl Parameter {
    /// Creates a required parameter.
    pub fn new(name: &str, schema: Schema) -> Self {
        Parameter {
            name: name.to_string(),
            schema,
            optional: false,
        }
    }

    /// Marks the parameter optional (builder style). Optional inputs fall
    /// back to the schema's `default`, if any.
    pub fn optional(mut self) -> Self {
        self.optional = true;
        self
    }

    /// Sets the human-readable description (builder style).
    pub fn describe(mut self, text: &str) -> Self {
        self.schema.description = Some(text.to_string());
        self
    }

    /// The parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The JSON Schema constraining values of this parameter.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Whether the parameter may be omitted.
    pub fn is_optional(&self) -> bool {
        self.optional
    }
}

/// Errors from parsing or validating against a service description.
#[derive(Debug, Clone, PartialEq)]
pub enum DescriptionError {
    /// The description document is structurally invalid.
    Malformed(String),
    /// Submitted inputs violate the description.
    InvalidInputs(Vec<String>),
}

impl fmt::Display for DescriptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptionError::Malformed(m) => write!(f, "malformed service description: {m}"),
            DescriptionError::InvalidInputs(errs) => {
                write!(f, "invalid inputs: {}", errs.join("; "))
            }
        }
    }
}

impl Error for DescriptionError {}

/// The public description of a computational web service.
///
/// Returned by `GET` on the service resource; consumed by the catalogue (for
/// indexing), the workflow editor (to generate block ports) and clients.
///
/// # Examples
///
/// ```
/// use mathcloud_core::{Parameter, ServiceDescription};
/// use mathcloud_json::{json, Schema};
///
/// let desc = ServiceDescription::new("inverse", "Exact matrix inversion")
///     .input(Parameter::new("matrix", Schema::string()))
///     .output(Parameter::new("result", Schema::string()))
///     .tag("linear-algebra");
///
/// let inputs = desc.accept_inputs(json!({"matrix": "1 0; 0 1"})).unwrap();
/// assert_eq!(inputs.get("matrix").and_then(|v| v.as_str()), Some("1 0; 0 1"));
/// assert!(desc.accept_inputs(json!({})).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDescription {
    name: String,
    description: String,
    inputs: Vec<Parameter>,
    outputs: Vec<Parameter>,
    tags: Vec<String>,
}

impl ServiceDescription {
    /// Creates a description with no parameters.
    pub fn new(name: &str, description: &str) -> Self {
        ServiceDescription {
            name: name.to_string(),
            description: description.to_string(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Adds an input parameter (builder style).
    pub fn input(mut self, p: Parameter) -> Self {
        self.inputs.push(p);
        self
    }

    /// Adds an output parameter (builder style).
    pub fn output(mut self, p: Parameter) -> Self {
        self.outputs.push(p);
        self
    }

    /// Adds a descriptive tag (builder style).
    pub fn tag(mut self, tag: &str) -> Self {
        self.tags.push(tag.to_string());
        self
    }

    /// The service name (also its URI segment).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The human-readable description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Declared input parameters.
    pub fn inputs(&self) -> &[Parameter] {
        &self.inputs
    }

    /// Declared output parameters.
    pub fn outputs(&self) -> &[Parameter] {
        &self.outputs
    }

    /// Descriptive tags.
    pub fn tags(&self) -> &[String] {
        &self.tags
    }

    /// Finds an input parameter by name.
    pub fn input_named(&self, name: &str) -> Option<&Parameter> {
        self.inputs.iter().find(|p| p.name() == name)
    }

    /// Finds an output parameter by name.
    pub fn output_named(&self, name: &str) -> Option<&Parameter> {
        self.outputs.iter().find(|p| p.name() == name)
    }

    /// [`ServiceDescription::accept_inputs`] of a copy of `body`: kept for
    /// `bench/jobpath`, which times validation apart from submission, until
    /// the next change to that benchmark.
    ///
    /// # Errors
    ///
    /// See [`ServiceDescription::accept_inputs`].
    pub fn validate_inputs(&self, body: &Value) -> Result<Object, DescriptionError> {
        self.accept_inputs(body.clone())
    }

    /// Validates a request body against the declared inputs, returning the
    /// effective input object, in declared order with defaults filled in.
    /// Each accepted value is moved out of `body`, not copied.
    ///
    /// Unknown parameters are rejected: the unified API is closed-world so
    /// typos fail fast instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// [`DescriptionError::InvalidInputs`] listing every violation.
    pub fn accept_inputs(&self, body: Value) -> Result<Object, DescriptionError> {
        let Value::Object(mut obj) = body else {
            return Err(DescriptionError::InvalidInputs(vec![format!(
                "request body must be a json object, got {}",
                body.type_name()
            )]));
        };
        let mut errors = Vec::new();
        let mut effective = Object::with_capacity(self.inputs.len());
        for param in &self.inputs {
            match obj.remove(param.name()) {
                Some(value) => {
                    if let Err(errs) = param.schema().validate(&value) {
                        for e in errs {
                            errors.push(format!("{}{}", param.name(), format_path_reason(&e)));
                        }
                    } else {
                        effective.insert(param.name().to_string(), value);
                    }
                }
                None if param.is_optional() => {
                    if let Some(default) = &param.schema().default {
                        effective.insert(param.name().to_string(), (**default).clone());
                    }
                }
                None => errors.push(format!("{}: missing required input", param.name())),
            }
        }
        // What is left was declared by no parameter.
        for (key, _) in obj.iter() {
            errors.push(format!("{key}: unknown input parameter"));
        }
        if errors.is_empty() {
            Ok(effective)
        } else {
            Err(DescriptionError::InvalidInputs(errors))
        }
    }

    /// Serializes the description document served by `GET` on the service
    /// resource.
    pub fn to_value(&self) -> Value {
        let mut o = Object::new();
        o.insert("protocol".into(), Value::from(crate::PROTOCOL_VERSION));
        o.insert("name".into(), Value::from(self.name.as_str()));
        o.insert("description".into(), Value::from(self.description.as_str()));
        if !self.tags.is_empty() {
            o.insert(
                "tags".into(),
                Value::Array(self.tags.iter().map(|t| Value::from(t.as_str())).collect()),
            );
        }
        o.insert("inputs".into(), params_to_value(&self.inputs));
        o.insert("outputs".into(), params_to_value(&self.outputs));
        Value::Object(o)
    }

    /// Parses a description document.
    ///
    /// # Errors
    ///
    /// [`DescriptionError::Malformed`] when required fields are missing or
    /// parameter schemas are invalid.
    pub fn from_value(v: &Value) -> Result<Self, DescriptionError> {
        let name = v
            .str_field("name")
            .ok_or_else(|| DescriptionError::Malformed("missing name".into()))?;
        Self::from_value_named(v, name)
    }

    /// [`ServiceDescription::from_value`] under `name`, whatever name the
    /// document carries: a hosted service is named where it is deployed.
    ///
    /// # Errors
    ///
    /// As [`ServiceDescription::from_value`], less the missing name.
    pub fn from_value_named(v: &Value, name: &str) -> Result<Self, DescriptionError> {
        let description = v.str_field("description").unwrap_or("");
        let mut desc = ServiceDescription::new(name, description);
        if let Some(tags) = v.get("tags").and_then(Value::as_array) {
            for t in tags {
                if let Some(t) = t.as_str() {
                    desc.tags.push(t.to_string());
                }
            }
        }
        desc.inputs = params_from_value(v.get("inputs"))?;
        desc.outputs = params_from_value(v.get("outputs"))?;
        Ok(desc)
    }
}

fn format_path_reason(e: &mathcloud_json::ValidationError) -> String {
    if e.path.is_empty() {
        format!(": {}", e.reason)
    } else {
        format!("{}: {}", e.path, e.reason)
    }
}

fn params_to_value(params: &[Parameter]) -> Value {
    let mut o = Object::new();
    for p in params {
        let mut schema_doc = p.schema().to_value();
        if p.is_optional() {
            if let Some(obj) = schema_doc.as_object_mut() {
                obj.insert("optional".into(), Value::Bool(true));
            }
        }
        o.insert(p.name().to_string(), schema_doc);
    }
    Value::Object(o)
}

fn params_from_value(v: Option<&Value>) -> Result<Vec<Parameter>, DescriptionError> {
    let mut out = Vec::new();
    let Some(v) = v else { return Ok(out) };
    let obj = v
        .as_object()
        .ok_or_else(|| DescriptionError::Malformed("parameters must be an object".into()))?;
    for (name, schema_doc) in obj.iter() {
        let optional = schema_doc
            .get("optional")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let schema = Schema::from_value(schema_doc)
            .map_err(|e| DescriptionError::Malformed(format!("parameter {name}: {e}")))?;
        let mut p = Parameter::new(name, schema);
        if optional {
            p = p.optional();
        }
        out.push(p);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    fn inverse_service() -> ServiceDescription {
        ServiceDescription::new("inverse", "Exact inversion of a rational matrix")
            .input(Parameter::new("matrix", Schema::string().min_length(1)))
            .input(
                Parameter::new("check", Schema::boolean().default_value(json!(false)))
                    .optional()
                    .describe("verify A*inv(A)=I before returning"),
            )
            .output(Parameter::new("result", Schema::string()))
            .output(Parameter::new("bits", Schema::integer()))
            .tag("linear-algebra")
            .tag("exact")
    }

    #[test]
    fn validate_accepts_good_inputs_and_fills_defaults() {
        let d = inverse_service();
        let eff = d.accept_inputs(json!({"matrix": "1 0; 0 1"})).unwrap();
        assert_eq!(eff.get("matrix").unwrap().as_str(), Some("1 0; 0 1"));
        assert_eq!(
            eff.get("check").unwrap().as_bool(),
            Some(false),
            "default filled"
        );
    }

    #[test]
    fn validate_collects_all_errors() {
        let d = inverse_service();
        let err = d
            .accept_inputs(json!({"check": "yes", "bogus": 1}))
            .unwrap_err();
        let DescriptionError::InvalidInputs(errs) = err else {
            panic!("wrong variant")
        };
        assert_eq!(errs.len(), 3, "{errs:?}"); // missing matrix, bad check, unknown bogus
    }

    #[test]
    fn accepted_inputs_are_moved_not_copied() {
        let d = inverse_service();
        let body = json!({"check": true, "matrix": "1 0; 0 1"});
        let matrix = body["matrix"].as_str().unwrap().as_ptr();
        let by_reference = d.validate_inputs(&body).unwrap();
        let eff = d.accept_inputs(body).unwrap();
        assert_eq!(
            eff.get("matrix").unwrap().as_str().unwrap().as_ptr(),
            matrix
        );
        // Declared order, whatever the body's, as the by-reference form gives.
        let keys: Vec<_> = eff.keys().map(String::as_str).collect();
        assert_eq!(keys, ["matrix", "check"]);
        assert_eq!(by_reference, eff);
    }

    #[test]
    fn validate_rejects_non_objects() {
        let d = inverse_service();
        assert!(d.accept_inputs(json!([1, 2])).is_err());
        assert!(d.accept_inputs(json!("text")).is_err());
    }

    #[test]
    fn description_round_trips_through_json() {
        let d = inverse_service();
        let doc = d.to_value();
        assert_eq!(doc["protocol"].as_str(), Some(crate::PROTOCOL_VERSION));
        let back = ServiceDescription::from_value(&doc).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn from_value_rejects_malformed_documents() {
        assert!(ServiceDescription::from_value(&json!({})).is_err());
        assert!(ServiceDescription::from_value(&json!({"name": "x", "inputs": [1]})).is_err());
        assert!(ServiceDescription::from_value(
            &json!({"name": "x", "inputs": {"p": {"type": "weird"}}})
        )
        .is_err());
    }

    #[test]
    fn lookup_by_name() {
        let d = inverse_service();
        assert!(d.input_named("matrix").is_some());
        assert!(d.input_named("result").is_none());
        assert!(d.output_named("result").is_some());
        assert_eq!(d.tags(), ["linear-algebra", "exact"]);
    }
}
