//! End-to-end tests of the Grid service container over real sockets:
//! deploy → discover → create instances → invoke → lifetime management.

use pperf_httpd::{HttpClient, HttpServer, Request, Response, ServerConfig, Status};
use pperf_ogsi::{
    Container, ContainerConfig, Factory, FactoryStub, GridServiceStub, Gsh, HandleMapStub,
    NotificationSinkStub, NotificationSourceStub, OgsiError, RegistryService, RegistryStub,
    ServiceData, ServiceEntry, ServicePort, ServiceStub,
};
use pperf_soap::wsdl::{Operation, PortType, ServiceDescription};
use pperf_soap::{
    decode_binary_batch_call, BatchEntry, Call, Fault, Value, ValueType, BINARY_CONTENT_TYPE,
    PPGB_MAGIC,
};
use ppg_context::CallContext;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A counter service: stateful, per-instance.
struct CounterInstance {
    count: AtomicU64,
    label: String,
    destroyed: Arc<AtomicU64>,
    notified: Arc<AtomicU64>,
}

impl ServicePort for CounterInstance {
    fn description(&self) -> ServiceDescription {
        counter_description()
    }

    fn invoke(&self, operation: &str, call: &Call) -> Result<Value, Fault> {
        match operation {
            "increment" => {
                let by = call.param("by").and_then(Value::as_int).unwrap_or(1);
                let newval = self.count.fetch_add(by as u64, Ordering::SeqCst) + by as u64;
                Ok(Value::Int(newval as i64))
            }
            "get" => Ok(Value::Int(self.count.load(Ordering::SeqCst) as i64)),
            "label" => Ok(Value::Str(self.label.clone())),
            "boom" => Err(Fault::server("intentional failure").with_detail("boom op")),
            other => Err(Fault::client(format!("unknown op {other:?}"))),
        }
    }

    fn service_data(&self) -> ServiceData {
        ServiceData::new().with("label", Value::Str(self.label.clone()))
    }

    fn on_destroy(&self) {
        self.destroyed.fetch_add(1, Ordering::SeqCst);
    }

    fn on_notification(&self, _topic: &str, _message: &str) {
        self.notified.fetch_add(1, Ordering::SeqCst);
    }
}

fn counter_description() -> ServiceDescription {
    ServiceDescription::new("Counter", "urn:test:counter").with_port_type(PortType::new(
        "Counter",
        vec![
            Operation::new(
                "increment",
                vec![("by", ValueType::Int)],
                ValueType::Int,
                "add",
            ),
            Operation::new("get", vec![], ValueType::Int, "read"),
            Operation::new("label", vec![], ValueType::Str, "creation label"),
        ],
    ))
}

struct CounterFactory {
    destroyed: Arc<AtomicU64>,
    notified: Arc<AtomicU64>,
}

impl Factory for CounterFactory {
    fn description(&self) -> ServiceDescription {
        counter_description()
    }

    fn create(&self, call: &Call) -> Result<Arc<dyn ServicePort>, Fault> {
        let label = call
            .param("label")
            .and_then(Value::as_str)
            .unwrap_or("anonymous")
            .to_owned();
        if label == "reject-me" {
            return Err(Fault::client("label rejected by factory"));
        }
        Ok(Arc::new(CounterInstance {
            count: AtomicU64::new(0),
            label,
            destroyed: Arc::clone(&self.destroyed),
            notified: Arc::clone(&self.notified),
        }))
    }
}

struct Fixture {
    container: Arc<Container>,
    client: Arc<HttpClient>,
    factory_gsh: Gsh,
    destroyed: Arc<AtomicU64>,
    notified: Arc<AtomicU64>,
}

fn fixture_with(config: ContainerConfig) -> Fixture {
    let container = Container::start("127.0.0.1:0", config).unwrap();
    let destroyed = Arc::new(AtomicU64::new(0));
    let notified = Arc::new(AtomicU64::new(0));
    let factory_gsh = container
        .deploy_factory(
            "counter",
            Arc::new(CounterFactory {
                destroyed: Arc::clone(&destroyed),
                notified: Arc::clone(&notified),
            }),
        )
        .unwrap();
    Fixture {
        container,
        client: Arc::new(HttpClient::new()),
        factory_gsh,
        destroyed,
        notified,
    }
}

fn fixture() -> Fixture {
    fixture_with(ContainerConfig::default())
}

#[test]
fn create_invoke_destroy_cycle() {
    let fx = fixture();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);

    let gsh = factory
        .create_service(&[("label", Value::from("hpl-run"))])
        .unwrap();
    assert!(gsh.as_str().contains("/instances/"));
    assert_eq!(fx.container.live_instances(), 1);

    let stub = ServiceStub::new(Arc::clone(&fx.client), gsh.clone());
    assert_eq!(
        stub.call_int("increment", &[("by", Value::Int(5))])
            .unwrap(),
        5
    );
    assert_eq!(
        stub.call_int("increment", &[("by", Value::Int(2))])
            .unwrap(),
        7
    );
    assert_eq!(
        stub.call_int("get", &[]).unwrap(),
        7,
        "instances are stateful"
    );

    let gs = GridServiceStub::bind(Arc::clone(&fx.client), &gsh);
    gs.destroy().unwrap();
    assert_eq!(fx.container.live_instances(), 0);
    assert_eq!(fx.destroyed.load(Ordering::SeqCst), 1);

    // Calls after destroy fault.
    assert!(stub.call_int("get", &[]).is_err());
}

#[test]
fn instances_are_independent_and_handles_unique() {
    let fx = fixture();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let mut handles = std::collections::HashSet::new();
    let mut stubs = Vec::new();
    for i in 0..10 {
        let gsh = factory
            .create_service(&[("label", Value::from(format!("run-{i}")))])
            .unwrap();
        assert!(handles.insert(gsh.as_str().to_owned()), "GSH uniqueness");
        stubs.push(ServiceStub::new(Arc::clone(&fx.client), gsh));
    }
    for (i, stub) in stubs.iter().enumerate() {
        for _ in 0..=i {
            stub.call_int("increment", &[]).unwrap();
        }
    }
    for (i, stub) in stubs.iter().enumerate() {
        assert_eq!(stub.call_int("get", &[]).unwrap(), (i + 1) as i64);
        let label = stub.call("label", &[]).unwrap();
        assert_eq!(label.as_str().unwrap(), format!("run-{i}"));
    }
}

#[test]
fn factory_rejection_becomes_fault() {
    let fx = fixture();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    match factory.create_service(&[("label", Value::from("reject-me"))]) {
        Err(OgsiError::Fault(f)) => assert!(f.string.contains("rejected")),
        other => panic!("expected fault, got {other:?}"),
    }
    assert_eq!(fx.container.live_instances(), 0);
}

#[test]
fn application_fault_propagates_with_detail() {
    let fx = fixture();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let gsh = factory.create_service(&[]).unwrap();
    let stub = ServiceStub::new(Arc::clone(&fx.client), gsh);
    match stub.call("boom", &[]) {
        Err(OgsiError::Fault(f)) => {
            assert_eq!(f.string, "intentional failure");
            assert_eq!(f.detail.as_deref(), Some("boom op"));
        }
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn wsdl_discovery() {
    let fx = fixture();
    let stub = ServiceStub::new(Arc::clone(&fx.client), fx.factory_gsh.clone());
    let desc = stub.fetch_description().unwrap();
    assert_eq!(desc.service_name, "Counter");
    let (_, op) = desc.find_operation("increment").unwrap();
    assert_eq!(op.ret, ValueType::Int);
}

#[test]
fn find_service_data_exposes_introspection_and_custom() {
    let fx = fixture();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let gsh = factory
        .create_service(&[("label", Value::from("sde-test"))])
        .unwrap();
    let gs = GridServiceStub::bind(Arc::clone(&fx.client), &gsh);

    let handle = gs.find_service_data("handle").unwrap();
    assert_eq!(handle.as_str().unwrap(), gsh.as_str());
    let kind = gs.find_service_data("serviceKind").unwrap();
    assert_eq!(kind.as_str().unwrap(), "instance");
    let label = gs.find_service_data("label").unwrap();
    assert_eq!(label.as_str().unwrap(), "sde-test");
    // Empty name lists available elements.
    let names = gs.find_service_data("").unwrap();
    let names = names.as_str_array().unwrap();
    assert!(names.contains(&"handle".to_owned()));
    assert!(names.contains(&"label".to_owned()));
    // Unknown element faults.
    assert!(gs.find_service_data("nonexistent").is_err());
}

#[test]
fn lifetime_expiry_destroys_instances() {
    let fx = fixture_with(ContainerConfig {
        default_lifetime: Some(Duration::from_millis(150)),
        sweep_interval: Duration::from_millis(30),
        ..Default::default()
    });
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let gsh = factory.create_service(&[]).unwrap();
    assert_eq!(fx.container.live_instances(), 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fx.container.live_instances() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "instance never expired"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(fx.destroyed.load(Ordering::SeqCst), 1);
    let stub = ServiceStub::new(Arc::clone(&fx.client), gsh);
    assert!(stub.call_int("get", &[]).is_err());
}

#[test]
fn set_termination_time_extends_and_pins_lifetime() {
    let fx = fixture_with(ContainerConfig {
        default_lifetime: Some(Duration::from_millis(100)),
        sweep_interval: Duration::from_millis(25),
        ..Default::default()
    });
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let gsh = factory.create_service(&[]).unwrap();
    let gs = GridServiceStub::bind(Arc::clone(&fx.client), &gsh);
    // Extend far beyond the default lifetime.
    assert_eq!(gs.set_termination_time(3600).unwrap(), 3600);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(fx.container.live_instances(), 1, "extension must stick");
    // Negative ⇒ indefinite.
    assert_eq!(gs.set_termination_time(-1).unwrap(), -1);
    // And the remaining-time introspection reports -1 for indefinite.
    let remaining = gs.find_service_data("terminationRemainingMillis").unwrap();
    assert_eq!(remaining.as_int(), Some(-1));
}

#[test]
fn persistent_services_resist_destroy_and_termination() {
    let fx = fixture();
    let registry_gsh = fx
        .container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let gs = GridServiceStub::bind(Arc::clone(&fx.client), &registry_gsh);
    assert!(gs.destroy().is_err());
    assert!(gs.set_termination_time(10).is_err());
}

#[test]
fn registry_over_the_wire() {
    let fx = fixture();
    let registry_gsh = fx
        .container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let registry = RegistryStub::bind(Arc::clone(&fx.client), &registry_gsh);

    registry
        .register_organization("PSU", "Portland, OR")
        .unwrap();
    registry
        .register_service(&ServiceEntry {
            organization: "PSU".into(),
            name: "HPL".into(),
            description: "High Performance Linpack runs".into(),
            factory_url: fx.factory_gsh.as_str().to_owned(),
        })
        .unwrap();

    let orgs = registry.find_organizations("PS").unwrap();
    assert_eq!(orgs.len(), 1);
    assert_eq!(orgs[0].name, "PSU");

    let services = registry.list_services("PSU").unwrap();
    assert_eq!(services.len(), 1);
    assert_eq!(services[0].factory_url, fx.factory_gsh.as_str());

    // Bind to the discovered factory and use it — the full Fig. 3 loop.
    let discovered = Gsh::parse(&services[0].factory_url).unwrap();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &discovered);
    let inst = factory.create_service(&[]).unwrap();
    let stub = ServiceStub::new(Arc::clone(&fx.client), inst);
    assert_eq!(stub.call_int("increment", &[]).unwrap(), 1);

    assert!(registry.unregister_service("PSU", "HPL").unwrap());
    assert!(registry.list_services("PSU").unwrap().is_empty());
}

#[test]
fn handle_map_resolution() {
    let fx = fixture();
    let resolver = HandleMapStub::new(Arc::clone(&fx.client));
    let r = resolver.find_by_handle(&fx.factory_gsh).unwrap();
    assert!(r.alive);
    assert_eq!(r.description.unwrap().service_name, "Counter");

    // A dead host resolves to not-alive, not an error.
    let dead = Gsh::parse("http://127.0.0.1:1/ogsa/services/x").unwrap();
    let r = resolver.find_by_handle(&dead).unwrap();
    assert!(!r.alive);
}

#[test]
fn notifications_flow_between_services() {
    let fx = fixture();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let sink_gsh = factory.create_service(&[]).unwrap();

    // Subscribe the sink instance to a topic on the factory service.
    let source = NotificationSourceStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let sub_id = source.subscribe("dataUpdated", &sink_gsh).unwrap();
    assert!(sub_id.starts_with("sub-"));

    fx.container
        .notify("/ogsa/services/counter", "dataUpdated", "rows=42");
    assert_eq!(fx.notified.load(Ordering::SeqCst), 1);

    // Direct sink delivery also works.
    let sink = NotificationSinkStub::bind(Arc::clone(&fx.client), &sink_gsh);
    sink.deliver("dataUpdated", "rows=43").unwrap();
    assert_eq!(fx.notified.load(Ordering::SeqCst), 2);

    // Non-matching topic: no delivery.
    fx.container.notify("/ogsa/services/counter", "other", "x");
    assert_eq!(fx.notified.load(Ordering::SeqCst), 2);
}

#[test]
fn concurrent_instance_creation_keeps_handles_unique() {
    let fx = fixture();
    let handles: Vec<String> = std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                let client = Arc::clone(&fx.client);
                let gsh = fx.factory_gsh.clone();
                scope.spawn(move || {
                    let factory = FactoryStub::bind(client, &gsh);
                    (0..8)
                        .map(|_| factory.create_service(&[]).unwrap().as_str().to_owned())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        tasks.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    let unique: std::collections::HashSet<_> = handles.iter().collect();
    assert_eq!(unique.len(), 64);
    assert_eq!(fx.container.live_instances(), 64);
    assert_eq!(fx.container.instance_counters(), (64, 0));
}

#[test]
fn local_instance_creation_bypasses_soap() {
    let fx = fixture();
    let call = Call {
        method: "createService".into(),
        namespace: None,
        params: vec![("label".into(), Value::from("local"))],
    };
    let gsh = fx
        .container
        .create_local_instance("counter", &call)
        .unwrap();
    // The locally created instance is reachable over the wire too.
    let stub = ServiceStub::new(Arc::clone(&fx.client), gsh);
    assert_eq!(stub.call("label", &[]).unwrap().as_str().unwrap(), "local");
    // Non-factory names error.
    assert!(fx.container.create_local_instance("nope", &call).is_err());
}

#[test]
fn undeploy_and_missing_paths() {
    let fx = fixture();
    assert!(fx.container.undeploy("counter"));
    assert!(!fx.container.undeploy("counter"));
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    assert!(factory.create_service(&[]).is_err());
}

#[test]
fn services_index_lists_paths() {
    let fx = fixture();
    let resp = fx
        .client
        .get(&format!("{}/ogsa/services", fx.container.base_url()))
        .unwrap();
    assert!(resp.body_str().contains("/ogsa/services/counter"));
}

#[test]
fn xpath_service_data_queries() {
    let fx = fixture();
    let factory = FactoryStub::bind(Arc::clone(&fx.client), &fx.factory_gsh);
    let gsh = factory
        .create_service(&[("label", Value::from("xpath-me"))])
        .unwrap();
    let gs = GridServiceStub::bind(Arc::clone(&fx.client), &gsh);

    // Custom service data element.
    assert_eq!(
        gs.query_service_data_xpath("/serviceData/label/text()")
            .unwrap(),
        ["xpath-me"]
    );
    // Container-contributed introspection data.
    assert_eq!(
        gs.query_service_data_xpath("/serviceData/serviceKind/text()")
            .unwrap(),
        ["instance"]
    );
    assert_eq!(
        gs.query_service_data_xpath("/serviceData/handle/text()")
            .unwrap(),
        [gsh.as_str()]
    );
    // Descendant axis and wildcards work over the document.
    assert!(!gs.query_service_data_xpath("//*").unwrap().is_empty());
    // No match is an empty result, not an error.
    assert!(gs
        .query_service_data_xpath("/serviceData/nonexistent")
        .unwrap()
        .is_empty());
    // A malformed expression faults.
    assert!(matches!(
        gs.query_service_data_xpath("relative/path"),
        Err(OgsiError::Fault(_))
    ));
}

#[test]
fn soft_state_registration_over_the_wire() {
    let fx = fixture();
    let registry_gsh = fx
        .container
        .deploy_service("registry-ttl", Arc::new(RegistryService::new()))
        .unwrap();
    let registry = RegistryStub::bind(Arc::clone(&fx.client), &registry_gsh);
    registry.register_organization("O", "contact").unwrap();
    let entry = ServiceEntry {
        organization: "O".into(),
        name: "ephemeral".into(),
        description: "lease-bound".into(),
        factory_url: fx.factory_gsh.as_str().to_owned(),
    };
    registry.register_service_with_ttl(&entry, 1).unwrap();
    assert_eq!(registry.list_services("O").unwrap().len(), 1);
    std::thread::sleep(Duration::from_millis(1100));
    assert!(
        registry.list_services("O").unwrap().is_empty(),
        "lease lapsed; entry aged out"
    );
    // Indefinite registration does not expire.
    registry.register_service(&entry).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(registry.list_services("O").unwrap().len(), 1);
}

/// The binary batch is the floor of the step-down ladder: a peer that
/// answers `/ogsa/binary` with anything but a PPGB frame — plain text, a
/// body labelled PPGB that does not decode, a 404 — yields the stub's "not
/// spoken" signal (`Ok(None)`), never a panic and never a decoded outcome.
#[test]
fn binary_batch_floor_reports_foreign_answers_as_not_spoken() {
    // The request itself is a real PPGB frame; its one entry's path picks
    // the foreign answer.
    let handler = |request: &Request| -> Response {
        let (entries, _) = decode_binary_batch_call(&request.body).expect("stub sent PPGB");
        match (request.path.as_str(), entries[0].path.as_str()) {
            ("/ogsa/binary", "text") => {
                Response::ok("text/plain; charset=utf-8", b"no PPGB here".to_vec())
            }
            ("/ogsa/binary", "corrupt") => {
                let mut body = PPGB_MAGIC.to_vec();
                body.extend_from_slice(&[1, 2, 0, 0, 0xff, 0xff, 0xff, 0xff]);
                Response::ok(BINARY_CONTENT_TYPE, body)
            }
            _ => Response::text(Status::NOT_FOUND, "no such route"),
        }
    };
    let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), Arc::new(handler))
        .expect("bind bare server");
    let client = Arc::new(HttpClient::new());
    let gsh = Gsh::parse(format!("http://{}/ogsa/services/exec", server.addr())).unwrap();
    let stub = ServiceStub::new(client, gsh);
    for (path, tag) in [
        ("text", "binary-downgrade"),
        ("corrupt", "binary-corrupt"),
        ("missing", "binary-downgrade"),
    ] {
        let entry = BatchEntry::new(path, "getPR", "urn:test", &[("metric", Value::from("m"))]);
        let ctx = CallContext::with_budget(Duration::from_secs(5));
        let answer = stub
            .call_batch_binary(&[entry], &ctx, Duration::ZERO)
            .unwrap_or_else(|e| panic!("{path}: a foreign answer is not an error: {e}"));
        assert!(answer.is_none(), "{path}: decoded {answer:?}");
        let spans = ctx.spans();
        assert_eq!(
            spans.last().map(|s| s.outcome.as_str()),
            Some(tag),
            "{path}: {spans:?}"
        );
    }
}
